// Hash containers for src/. Every unordered map and set in the simulator is
// one of these aliases, whose hasher mixes std::hash<K> with a per-process
// salt. Two processes never share a salt, so they walk the same container in
// different orders: an output that depends on hash order (bytes written in
// iteration order, waiters resumed in it) differs between the two runs of a
// determinism gate (tests/determinism/run_twice.cmake) and fails it. Within
// one process the salt is fixed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace dufs {

// This process's salt: the address of a static, which the default PIE build
// places anew in every process, mixed with the process id, so two processes
// differ even with address randomization off. No flag or environment
// variable sets it.
std::uint64_t HashSalt();

template <typename K>
class SaltedHash {
 public:
  // splitmix64's finalizer over the salted std::hash: every salt bit reaches
  // the bucket bits.
  std::size_t operator()(const K& key) const noexcept {
    std::uint64_t z = static_cast<std::uint64_t>(std::hash<K>{}(key)) ^ salt_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }

 private:
  std::uint64_t salt_ = HashSalt();
};

template <typename K, typename V>
using HashMap = std::unordered_map<K, V, SaltedHash<K>>;

template <typename K>
using HashSet = std::unordered_set<K, SaltedHash<K>>;

}  // namespace dufs
