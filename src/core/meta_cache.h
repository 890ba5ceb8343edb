// Client-side metadata cache for DUFS (the "client metadata cache" lever
// from λFS / 3FS-style metadata services): a bounded LRU of znode lookups.
//
//   * Positive entries: znode path -> (MetaRecord, ZnodeStat) — one cached
//     attr+dentry, so repeated stat()/lookup of a hot path costs zero
//     ZooKeeper round trips.
//   * Negative entries: znode path -> "known absent", so repeated failing
//     lookups (shell PATH probing, O_CREAT checks) are also free.
//
// Coherence (see DESIGN.md "Metadata fast path"):
//   * every read that fills the cache registers a one-shot ZooKeeper data
//     watch; the watch event (create/delete/dataChanged) invalidates the
//     entry — cross-client mutations are observed within one notification
//     delay;
//   * the owning client's own mutations invalidate synchronously;
//   * a TTL bounds staleness if a watch event is lost (client failover,
//     dropped notification).
//
// Layout: entries live in a Slab of nodes doubly linked into the LRU list
// by node id; a PathTable (flat, open addressing) maps each path to its
// node. The table has no iteration API, and InvalidateSubtree walks the LRU
// list, so no result depends on hash order.
//
// The cache is a plain deterministic data structure (no coroutines); the
// DufsClient drives it. Memory is bounded by `capacity` and reported via
// EstimateMemoryBytes() so the Fig. 11 client-memory story stays honest.
// That estimate is a fixed per-entry model, not the host layout.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/path_table.h"
#include "common/slab.h"
#include "core/meta_schema.h"
#include "sim/simulation.h"
#include "zk/znode.h"

namespace dufs::core {

struct MetaCacheConfig {
  std::size_t capacity = 4096;           // entries (positive + negative)
  sim::Duration ttl = sim::Ms(500);      // staleness bound if a watch is lost
  bool negative_entries = true;
};

class MetaCache {
 public:
  struct Entry {
    bool negative = false;
    MetaRecord record;     // valid when !negative
    zk::ZnodeStat stat;    // valid when !negative
    sim::SimTime inserted = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t negative_hits = 0;
    std::uint64_t expirations = 0;    // TTL-lapsed entries dropped on lookup
    std::uint64_t invalidations = 0;  // watch- or mutation-driven
    std::uint64_t evictions = 0;      // LRU capacity pressure
  };

  MetaCache(sim::Simulation& sim, MetaCacheConfig config = {});

  // nullptr on miss or TTL expiry (expired entries are dropped). A hit
  // refreshes the entry's LRU position. The pointer is valid until the next
  // non-const call.
  const Entry* Lookup(std::string_view path);

  void PutPositive(std::string_view path, MetaRecord record,
                   zk::ZnodeStat stat);
  void PutNegative(std::string_view path);

  // Drops one path (no-op when absent). Counted as an invalidation only
  // when something was actually cached.
  void Invalidate(std::string_view path);
  // Drops `path` and every entry under "path/" (directory rename/unlink).
  void InvalidateSubtree(std::string_view path);
  void Clear();

  std::size_t size() const { return index_.size(); }
  const Stats& stats() const { return stats_; }
  const MetaCacheConfig& config() const { return config_; }
  std::size_t EstimateMemoryBytes() const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // One cached path, linked into the LRU list by node id. The index keys
  // each live node by a view of its `path`.
  struct Node {
    std::string path;
    Entry entry;
    std::uint32_t prev = kNil;  // more recently used
    std::uint32_t next = kNil;  // less recently used
  };

  void Put(std::string_view path, Entry entry);
  void Erase(std::uint32_t id);
  void Unlink(std::uint32_t id);
  void LinkFront(std::uint32_t id);

  sim::Simulation& sim_;
  MetaCacheConfig config_;
  Slab<Node> nodes_;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used: the next victim
  PathTable<std::uint32_t> index_;  // path -> node id
  Stats stats_;
  std::size_t bytes_ = 0;  // sum of cached key+payload bytes
};

}  // namespace dufs::core
