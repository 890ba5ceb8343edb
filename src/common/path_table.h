// Flat open-addressing hash index from path strings to small values: the
// lookup structure behind the client MetaCache and the ZooKeeper watch
// tables.
//
//   * One array of slots, a power of two long, grown by doubling before the
//     load passes 3/4. A key's home slot is `hash & mask`; collisions probe
//     linearly and wrap at the end of the array.
//   * Each slot stores its key's full hash (0 marks an empty slot). A probe
//     compares hashes first and reads the key only on a match, and growth
//     re-slots entries without hashing them again.
//   * Deletion shifts later entries of the probe run back into the hole
//     (backward-shift deletion), so there are no tombstones and probe runs
//     do not lengthen under insert/erase churn.
//   * Keys are std::string_view. A lookup may probe with a slice of a buffer
//     the caller is building (each prefix of a path) without allocating.
//     The table stores the view it was given on Insert, not a copy: the
//     caller owns the key's characters and keeps them alive and unchanged
//     until it erases the key. Both users keep them in Slab nodes, whose
//     addresses never change.
//
// There is deliberately no iteration API. Slot order is hash order, and no
// simulated state may depend on it; a caller that must visit every entry
// walks its own storage in a deterministic order.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace dufs {

template <typename V, typename Hash = std::hash<std::string_view>>
class PathTable {
 public:
  // Value stored under `key`, or nullptr. Valid until the next insert or
  // erase.
  V* Find(std::string_view key) {
    const std::size_t i = SlotOf(key, HashOf(key));
    return i == kNone ? nullptr : &slots_[i].value;
  }

  // Adds `key`, which must be absent, with `value`. Stores the view itself:
  // its characters must outlive the entry.
  void Insert(std::string_view key, V value) {
    if ((size_ + 1) * 4 > hashes_.size() * 3) Grow();
    const std::size_t hash = HashOf(key);
    const std::size_t i = EmptySlotFor(hash);
    hashes_[i] = hash;
    slots_[i] = Slot{key, std::move(value)};
    ++size_;
  }

  // Removes `key`; false when it was absent.
  bool Erase(std::string_view key) {
    std::size_t hole = SlotOf(key, HashOf(key));
    if (hole == kNone) return false;
    const std::size_t mask = hashes_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; hashes_[j] != 0;
         j = (j + 1) & mask) {
      // The entry at j may move back into the hole only if the hole lies on
      // its probe path, i.e. cyclically within [home(j), j).
      const std::size_t home = hashes_[j] & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        hashes_[hole] = hashes_[j];
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    hashes_[hole] = 0;
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  void Clear() {
    hashes_.clear();
    slots_.clear();
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  // Slot count (0 before the first insert).
  std::size_t capacity() const { return hashes_.size(); }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::string_view key;
    V value{};
  };

  static std::size_t HashOf(std::string_view key) {
    const std::size_t hash = Hash{}(key);
    return hash != 0 ? hash : 1;  // 0 marks an empty slot
  }

  std::size_t SlotOf(std::string_view key, std::size_t hash) const {
    if (size_ == 0) return kNone;
    const std::size_t mask = hashes_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      if (hashes_[i] == 0) return kNone;
      if (hashes_[i] == hash && slots_[i].key == key) return i;
    }
  }

  std::size_t EmptySlotFor(std::size_t hash) const {
    const std::size_t mask = hashes_.size() - 1;
    std::size_t i = hash & mask;
    while (hashes_[i] != 0) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    const std::size_t grown =
        hashes_.empty() ? kMinCapacity : hashes_.size() * 2;
    const std::vector<std::size_t> old_hashes =
        std::exchange(hashes_, std::vector<std::size_t>(grown, 0));
    std::vector<Slot> old_slots =
        std::exchange(slots_, std::vector<Slot>(grown));
    for (std::size_t i = 0; i < old_hashes.size(); ++i) {
      if (old_hashes[i] == 0) continue;
      const std::size_t j = EmptySlotFor(old_hashes[i]);
      hashes_[j] = old_hashes[i];
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<std::size_t> hashes_;  // 0 = empty
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace dufs
