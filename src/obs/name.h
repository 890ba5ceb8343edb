// obs::Name — the type of every metric key, span name, span category, span
// arg key and profiler frame name.
//
// Those names are the keys of byte-compared exports (metrics JSON, Chrome
// traces, folded profiles), and the tracer and profiler hold them by pointer,
// so a name must be fixed at compile time and outlive every sample. The type
// enforces both: the public constructor is consteval and takes only a string
// literal matching [a-z][a-z0-9._-]*, so a runtime-built key, a std::string, a
// forwarded `const char*` or an upper-case literal is a compile error at the
// call site (tests/compile/obs_name_probe.cmake checks those shapes as failed
// compiles, tests/obs/name_test.cc through the predicate and the API's
// signatures). The only other sources are the default Name (""; an unattached
// NodeObs, pushes no profiler frame) and prof::InternName (node names built
// at testbed setup).
//
// Standalone (std headers only): prof.h, which src/sim depends on, uses it.
#pragma once

#include <cstddef>
#include <string>

namespace dufs::obs {
class Name;
}  // namespace dufs::obs

namespace dufs::prof {
obs::Name InternName(const std::string& name);
}  // namespace dufs::prof

namespace dufs::obs {

namespace detail {
// Not constexpr: reaching it during constant evaluation is the diagnostic.
void ObsNameMustMatchLowerCaseDotted();

// True when the n characters at s match [a-z][a-z0-9._-]* (so n >= 1).
constexpr bool IsLowerCaseDotted(const char* s, std::size_t n) {
  if (n == 0 || !(s[0] >= 'a' && s[0] <= 'z')) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const char c = s[i];
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' ||
          c == '_' || c == '-')) {
      return false;
    }
  }
  return true;
}
}  // namespace detail

class Name {
 public:
  constexpr Name() = default;

  template <std::size_t N>
  consteval Name(const char (&literal)[N]) : str_(literal) {
    if (literal[N - 1] != '\0' || !detail::IsLowerCaseDotted(literal, N - 1)) {
      detail::ObsNameMustMatchLowerCaseDotted();
    }
  }

  constexpr const char* c_str() const { return str_; }
  constexpr bool empty() const { return str_[0] == '\0'; }

 private:
  friend Name prof::InternName(const std::string& name);
  struct Interned {};
  constexpr Name(Interned, const char* str) : str_(str) {}

  const char* str_ = "";
};

}  // namespace dufs::obs
