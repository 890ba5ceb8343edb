#include "core/meta_cache.h"

namespace dufs::core {

namespace {

// Approximate resident bytes for one entry: key string + record payload +
// list/map node overhead (measured-ish, same spirit as zk memory model).
// This is the Fig. 11 memory model, not the host layout, and stays fixed.
std::size_t EntryBytes(const std::string& path, const MetaCache::Entry& e) {
  constexpr std::size_t kNodeOverhead = 96;  // list node + hash slot + Entry
  return kNodeOverhead + path.size() +
         (e.negative ? 0 : e.record.symlink_target.size());
}

}  // namespace

MetaCache::MetaCache(sim::Simulation& sim, MetaCacheConfig config)
    : sim_(sim), config_(config) {
  DUFS_CHECK(config_.capacity > 0);
}

const MetaCache::Entry* MetaCache::Lookup(std::string_view path) {
  const std::uint32_t* id = index_.Find(path);
  if (id == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  Node& node = nodes_[*id];
  if (config_.ttl > 0 && sim_.now() - node.entry.inserted > config_.ttl) {
    ++stats_.expirations;
    ++stats_.misses;
    Erase(*id);
    return nullptr;
  }
  Unlink(*id);  // refresh recency
  LinkFront(*id);
  if (node.entry.negative) {
    ++stats_.negative_hits;
  } else {
    ++stats_.hits;
  }
  return &node.entry;
}

void MetaCache::Put(std::string_view path, Entry entry) {
  entry.inserted = sim_.now();
  if (const std::uint32_t* found = index_.Find(path)) {
    const std::uint32_t id = *found;
    Node& node = nodes_[id];
    bytes_ -= EntryBytes(node.path, node.entry);
    node.entry = std::move(entry);
    bytes_ += EntryBytes(node.path, node.entry);
    Unlink(id);
    LinkFront(id);
    return;
  }
  while (index_.size() >= config_.capacity) {
    ++stats_.evictions;
    Erase(tail_);
  }
  const std::uint32_t id = nodes_.Allocate();
  Node& node = nodes_[id];
  node.path.assign(path);
  node.entry = std::move(entry);
  bytes_ += EntryBytes(node.path, node.entry);
  LinkFront(id);
  index_.Insert(node.path, id);
}

void MetaCache::PutPositive(std::string_view path, MetaRecord record,
                            zk::ZnodeStat stat) {
  Entry entry;
  entry.record = std::move(record);
  entry.stat = stat;
  Put(path, std::move(entry));
}

void MetaCache::PutNegative(std::string_view path) {
  if (!config_.negative_entries) return;
  Entry entry;
  entry.negative = true;
  Put(path, std::move(entry));
}

void MetaCache::Invalidate(std::string_view path) {
  const std::uint32_t* id = index_.Find(path);
  if (id == nullptr) return;
  ++stats_.invalidations;
  Erase(*id);
}

void MetaCache::InvalidateSubtree(std::string_view path) {
  Invalidate(path);
  const std::string prefix = std::string(path) + "/";
  // Walks the LRU list, not the hash index, so the visit order is fixed.
  for (std::uint32_t id = head_; id != kNil;) {
    const std::uint32_t next = nodes_[id].next;
    if (nodes_[id].path.starts_with(prefix)) {
      ++stats_.invalidations;
      Erase(id);
    }
    id = next;
  }
}

void MetaCache::Clear() {
  nodes_.Clear();
  head_ = tail_ = kNil;
  index_.Clear();
  bytes_ = 0;
}

std::size_t MetaCache::EstimateMemoryBytes() const { return bytes_; }

void MetaCache::Erase(std::uint32_t id) {
  Node& node = nodes_[id];
  bytes_ -= EntryBytes(node.path, node.entry);
  index_.Erase(node.path);
  Unlink(id);
  nodes_.Free(id);
}

void MetaCache::Unlink(std::uint32_t id) {
  Node& node = nodes_[id];
  (node.prev != kNil ? nodes_[node.prev].next : head_) = node.next;
  (node.next != kNil ? nodes_[node.next].prev : tail_) = node.prev;
  node.prev = node.next = kNil;
}

void MetaCache::LinkFront(std::uint32_t id) {
  Node& node = nodes_[id];
  node.prev = kNil;
  node.next = head_;
  (head_ != kNil ? nodes_[head_].prev : tail_) = id;
  head_ = id;
}

}  // namespace dufs::core
