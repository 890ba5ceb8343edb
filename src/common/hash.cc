#include "common/hash.h"

#include <unistd.h>

namespace dufs {

std::uint64_t HashSalt() {
  static const std::uint64_t salt = [] {
    static const char anchor = 0;
    const auto address = reinterpret_cast<std::uintptr_t>(&anchor);
    return static_cast<std::uint64_t>(address) ^
           (static_cast<std::uint64_t>(::getpid()) << 32);
  }();
  return salt;
}

}  // namespace dufs
