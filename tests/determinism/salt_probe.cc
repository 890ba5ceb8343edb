// Prints the iteration order of one 64-element salted hash set. Each process
// has its own salt (common/hash.h), so two runs must print two different
// orders: tests/determinism/stdout_twice.cmake with EXPECT=differ proves the
// salt reaches the hasher.
#include <cstdint>
#include <cstdio>

#include "common/hash.h"

int main() {
  dufs::HashSet<std::uint64_t> set;
  for (std::uint64_t i = 0; i < 64; ++i) set.insert(i);
  for (std::uint64_t v : set) {
    std::printf("%llu\n", static_cast<unsigned long long>(v));
  }
  return 0;
}
