// Chunked object pool with stable ids and addresses, for the nodes that a
// PathTable indexes. Growth adds a fixed-size chunk and never moves an
// element, so a view of a node's key stays valid while the node lives, and
// no memory sits in a doubled vector's unused tail. Freed ids are reused
// last-in first-out; a freed element keeps its state (and its buffers)
// until the caller overwrites it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace dufs {

template <typename T, std::uint32_t kChunk = 64>
class Slab {
 public:
  std::uint32_t Allocate() {
    if (!free_.empty()) {
      const std::uint32_t id = free_.back();
      free_.pop_back();
      return id;
    }
    if (next_ % kChunk == 0) chunks_.push_back(std::make_unique<T[]>(kChunk));
    return next_++;
  }
  void Free(std::uint32_t id) { free_.push_back(id); }

  T& operator[](std::uint32_t id) { return chunks_[id / kChunk][id % kChunk]; }

  // Every id ever allocated is below this, live or free.
  std::uint32_t id_limit() const { return next_; }

  void Clear() {
    chunks_.clear();
    free_.clear();
    next_ = 0;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t next_ = 0;
};

}  // namespace dufs
