// MetaCache unit tests (LRU/TTL/negative-entry mechanics) plus full-stack
// coherence tests: one client's mutation must invalidate another client's
// cached entry through the one-shot ZooKeeper watch, well before the TTL
// staleness bound kicks in.
#include "core/meta_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mdtest/testbed.h"
#include "sim/task.h"
#include "testutil/co_assert.h"

namespace dufs::core {
namespace {

using mdtest::BackendKind;
using mdtest::Testbed;
using mdtest::TestbedConfig;

MetaRecord DirRecord() { return MetaRecord::Dir(0755); }

zk::ZnodeStat StatWithVersion(std::int32_t v) {
  zk::ZnodeStat stat;
  stat.version = v;
  return stat;
}

void AdvanceTime(sim::Simulation& sim, sim::Duration d) {
  sim.ScheduleFn(d, [] {});
  sim.Run();
}

TEST(MetaCacheTest, HitMissAndLruStats) {
  sim::Simulation sim;
  MetaCache cache(sim, {.capacity = 8});
  EXPECT_EQ(cache.Lookup("/a"), nullptr);
  cache.PutPositive("/a", DirRecord(), StatWithVersion(3));
  const auto* hit = cache.Lookup("/a");
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->negative);
  EXPECT_EQ(hit->stat.version, 3);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MetaCacheTest, NegativeEntries) {
  sim::Simulation sim;
  MetaCache cache(sim, {});
  cache.PutNegative("/gone");
  const auto* hit = cache.Lookup("/gone");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->negative);
  EXPECT_EQ(cache.stats().negative_hits, 1u);
  // A later positive put replaces the tombstone in place.
  cache.PutPositive("/gone", DirRecord(), StatWithVersion(0));
  ASSERT_NE(cache.Lookup("/gone"), nullptr);
  EXPECT_FALSE(cache.Lookup("/gone")->negative);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MetaCacheTest, LruBoundEvictsOldest) {
  sim::Simulation sim;
  MetaCache cache(sim, {.capacity = 4});
  for (int i = 0; i < 6; ++i) {
    cache.PutPositive("/n" + std::to_string(i), DirRecord(),
                      StatWithVersion(i));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.Lookup("/n0"), nullptr);
  EXPECT_EQ(cache.Lookup("/n1"), nullptr);
  EXPECT_NE(cache.Lookup("/n5"), nullptr);
}

TEST(MetaCacheTest, LookupRefreshesLruPosition) {
  sim::Simulation sim;
  MetaCache cache(sim, {.capacity = 2});
  cache.PutPositive("/old", DirRecord(), StatWithVersion(0));
  cache.PutPositive("/mid", DirRecord(), StatWithVersion(0));
  ASSERT_NE(cache.Lookup("/old"), nullptr);  // /mid is now the LRU victim
  cache.PutPositive("/new", DirRecord(), StatWithVersion(0));
  EXPECT_NE(cache.Lookup("/old"), nullptr);
  EXPECT_EQ(cache.Lookup("/mid"), nullptr);
}

TEST(MetaCacheTest, TtlExpiresEntries) {
  sim::Simulation sim;
  MetaCache cache(sim, {.ttl = sim::Ms(100)});
  cache.PutPositive("/a", DirRecord(), StatWithVersion(0));
  AdvanceTime(sim, sim::Ms(50));
  EXPECT_NE(cache.Lookup("/a"), nullptr);  // still fresh
  AdvanceTime(sim, sim::Ms(100));
  EXPECT_EQ(cache.Lookup("/a"), nullptr);  // lapsed
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MetaCacheTest, InvalidateSubtreeDropsDescendantsOnly) {
  sim::Simulation sim;
  MetaCache cache(sim, {});
  cache.PutPositive("/a", DirRecord(), StatWithVersion(0));
  cache.PutPositive("/a/x", DirRecord(), StatWithVersion(0));
  cache.PutPositive("/a/x/y", DirRecord(), StatWithVersion(0));
  cache.PutPositive("/ab", DirRecord(), StatWithVersion(0));  // sibling prefix
  cache.InvalidateSubtree("/a");
  EXPECT_EQ(cache.Lookup("/a"), nullptr);
  EXPECT_EQ(cache.Lookup("/a/x"), nullptr);
  EXPECT_EQ(cache.Lookup("/a/x/y"), nullptr);
  EXPECT_NE(cache.Lookup("/ab"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 3u);
}

TEST(MetaCacheTest, MemoryAccountingTracksContent) {
  sim::Simulation sim;
  MetaCache cache(sim, {});
  EXPECT_EQ(cache.EstimateMemoryBytes(), 0u);
  cache.PutPositive("/a", DirRecord(), StatWithVersion(0));
  const std::size_t one = cache.EstimateMemoryBytes();
  EXPECT_GT(one, 0u);
  cache.PutPositive("/b", DirRecord(), StatWithVersion(0));
  EXPECT_GT(cache.EstimateMemoryBytes(), one);
  cache.Clear();
  EXPECT_EQ(cache.EstimateMemoryBytes(), 0u);
}

// ---------------------------------------- randomized, against a reference

// The cache's semantics as a std::list LRU + path -> iterator map, the
// layout MetaCache used before its flat table. Same stats, same victims,
// same Fig. 11 memory model (96 bytes of node overhead + key + symlink).
class ReferenceCache {
 public:
  struct Entry {
    bool negative = false;
    std::string symlink_target;
    std::int32_t version = 0;
    sim::SimTime inserted = 0;
  };

  ReferenceCache(std::size_t capacity, sim::Duration ttl)
      : capacity_(capacity), ttl_(ttl) {}

  const Entry* Lookup(const std::string& path, sim::SimTime now) {
    auto it = map_.find(path);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    if (now - it->second->second.inserted > ttl_) {
      ++stats_.expirations;
      ++stats_.misses;
      Erase(it);
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++(it->second->second.negative ? stats_.negative_hits : stats_.hits);
    return &it->second->second;
  }

  // Returns the evicted paths, oldest first.
  std::vector<std::string> Put(const std::string& path, Entry entry) {
    std::vector<std::string> victims;
    auto it = map_.find(path);
    if (it != map_.end()) {
      bytes_ -= Bytes(path, it->second->second);
      it->second->second = std::move(entry);
      bytes_ += Bytes(path, it->second->second);
      lru_.splice(lru_.begin(), lru_, it->second);
      return victims;
    }
    while (map_.size() >= capacity_) {
      ++stats_.evictions;
      victims.push_back(lru_.back().first);
      Erase(map_.find(lru_.back().first));
    }
    bytes_ += Bytes(path, entry);
    lru_.emplace_front(path, std::move(entry));
    map_.emplace(path, lru_.begin());
    return victims;
  }

  void Invalidate(const std::string& path) {
    auto it = map_.find(path);
    if (it == map_.end()) return;
    ++stats_.invalidations;
    Erase(it);
  }

  void InvalidateSubtree(const std::string& path) {
    Invalidate(path);
    const std::string prefix = path + "/";
    for (auto it = lru_.begin(); it != lru_.end();) {
      const std::string& key = (it++)->first;
      if (key.starts_with(prefix)) Invalidate(std::string(key));
    }
  }

  std::size_t size() const { return map_.size(); }
  std::size_t bytes() const { return bytes_; }
  const MetaCache::Stats& stats() const { return stats_; }

 private:
  using Lru = std::list<std::pair<std::string, Entry>>;

  static std::size_t Bytes(const std::string& path, const Entry& e) {
    return 96 + path.size() + (e.negative ? 0 : e.symlink_target.size());
  }

  void Erase(std::unordered_map<std::string, Lru::iterator>::iterator it) {
    bytes_ -= Bytes(it->first, it->second->second);
    lru_.erase(it->second);
    map_.erase(it);
  }

  std::size_t capacity_;
  sim::Duration ttl_;
  Lru lru_;
  std::unordered_map<std::string, Lru::iterator> map_;
  MetaCache::Stats stats_;
  std::size_t bytes_ = 0;
};

void ExpectSameStats(const MetaCache::Stats& got,
                     const MetaCache::Stats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.negative_hits, want.negative_hits);
  EXPECT_EQ(got.expirations, want.expirations);
  EXPECT_EQ(got.invalidations, want.invalidations);
  EXPECT_EQ(got.evictions, want.evictions);
}

// Drives Put/Lookup/Invalidate/InvalidateSubtree and TTL expiry over a
// small tree at capacity 8 and checks every result, the stats, the memory
// estimate and each eviction's victims against the reference.
TEST(MetaCacheTest, RandomizedMatchesReferenceModel) {
  constexpr std::size_t kCapacity = 8;
  constexpr sim::Duration kTtl = sim::Us(80);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulation sim;
    MetaCache cache(sim, {.capacity = kCapacity, .ttl = kTtl});
    ReferenceCache ref(kCapacity, kTtl);
    Rng rng(seed);
    // 3 dirs, 3 children each, 2 grandchildren each: 30 paths, and "/d1x"
    // shares a string prefix with "/d1" without being under it.
    std::vector<std::string> paths = {"/d1x"};
    for (int d = 0; d < 3; ++d) {
      const std::string dir = "/d" + std::to_string(d);
      paths.push_back(dir);
      for (int c = 0; c < 3; ++c) {
        const std::string child = dir + "/c" + std::to_string(c);
        paths.push_back(child);
        for (int g = 0; g < 2; ++g) {
          paths.push_back(child + "/g" + std::to_string(g));
        }
      }
    }
    for (int step = 0; step < 20000; ++step) {
      const std::string& path = paths[rng.NextBelow(paths.size())];
      const std::uint64_t roll = rng.NextBelow(100);
      if (roll < 35) {
        const MetaCache::Entry* got = cache.Lookup(path);
        const ReferenceCache::Entry* want = ref.Lookup(path, sim.now());
        ASSERT_EQ(got != nullptr, want != nullptr) << path << " @" << step;
        if (got != nullptr) {
          EXPECT_EQ(got->negative, want->negative);
          EXPECT_EQ(got->inserted, want->inserted);
          if (!got->negative) {
            EXPECT_EQ(got->stat.version, want->version);
            EXPECT_EQ(got->record.symlink_target, want->symlink_target);
          }
        }
      } else if (roll < 65) {
        ReferenceCache::Entry entry;
        entry.negative = roll >= 55;
        entry.inserted = sim.now();
        std::vector<std::string> victims;
        if (entry.negative) {
          cache.PutNegative(path);
          victims = ref.Put(path, entry);
        } else {
          entry.version = static_cast<std::int32_t>(step);
          entry.symlink_target.assign(rng.NextBelow(40), 's');
          MetaRecord record = DirRecord();
          record.symlink_target = entry.symlink_target;
          cache.PutPositive(path, record, StatWithVersion(entry.version));
          victims = ref.Put(path, entry);
        }
        for (const std::string& victim : victims) {
          // Both miss, so both count one more miss and nothing else moves.
          EXPECT_EQ(cache.Lookup(victim), nullptr) << victim << " @" << step;
          EXPECT_EQ(ref.Lookup(victim, sim.now()), nullptr);
        }
      } else if (roll < 80) {
        cache.Invalidate(path);
        ref.Invalidate(path);
      } else if (roll < 85) {
        cache.InvalidateSubtree(path);
        ref.InvalidateSubtree(path);
      } else {
        AdvanceTime(sim, sim::Us(static_cast<std::int64_t>(rng.NextBelow(60))));
      }
      ASSERT_EQ(cache.size(), ref.size()) << "@" << step;
      ASSERT_EQ(cache.EstimateMemoryBytes(), ref.bytes()) << "@" << step;
      ExpectSameStats(cache.stats(), ref.stats());
      if (HasFailure()) FAIL() << "diverged at step " << step;
    }
    EXPECT_GT(cache.stats().evictions, 100u);
    EXPECT_GT(cache.stats().expirations, 100u);
    EXPECT_GT(cache.stats().invalidations, 100u);
  }
}

// ------------------------------------------------------ coherence (2 clients)

TestbedConfig CoherenceConfig() {
  TestbedConfig config;
  config.zk_servers = 3;
  config.client_nodes = 2;
  config.backend = BackendKind::kMemFs;
  config.backend_instances = 2;
  // A deliberately long TTL: if these tests pass, it is the watch (not the
  // staleness bound) doing the invalidation.
  config.dufs.meta_cache.ttl = sim::Sec(30);
  return config;
}

TEST(MetaCacheCoherenceTest, CachedStatCostsNoZkRequests) {
  Testbed tb(CoherenceConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& dufs = *t.client(0).dufs;
    auto& zk = *t.client(0).zk;
    CO_ASSERT_TRUE((co_await dufs.Mkdir("/d", 0755)).ok());
    CO_ASSERT_TRUE((co_await dufs.GetAttr("/d")).ok());  // fills the cache
    const std::uint64_t before = zk.requests_sent();
    for (int i = 0; i < 8; ++i) {
      CO_ASSERT_TRUE((co_await dufs.GetAttr("/d")).ok());
    }
    EXPECT_EQ(zk.requests_sent(), before);  // all eight served from cache
    EXPECT_GE(t.client(0).dufs->meta_cache().stats().hits, 8u);
  }(tb));
}

TEST(MetaCacheCoherenceTest, RemoteUnlinkInvalidatesViaWatchBeforeTtl) {
  Testbed tb(CoherenceConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& writer = *t.client(0).dufs;
    auto& reader = *t.client(1).dufs;
    CO_ASSERT_TRUE((co_await writer.Create("/f", 0644)).ok());
    CO_ASSERT_TRUE((co_await reader.GetAttr("/f")).ok());  // reader caches /f
    const auto invalidations_before =
        reader.meta_cache().stats().invalidations;
    CO_ASSERT_TRUE((co_await writer.Unlink("/f")).ok());
    co_await t.sim().Delay(sim::Ms(10));  // watch notification propagation
    EXPECT_GT(reader.meta_cache().stats().invalidations,
              invalidations_before);
    auto attr = co_await reader.GetAttr("/f");
    EXPECT_EQ(attr.code(), StatusCode::kNotFound);  // no stale positive hit
  }(tb));
}

TEST(MetaCacheCoherenceTest, RemoteCreateRefutesNegativeEntryViaWatch) {
  Testbed tb(CoherenceConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& writer = *t.client(0).dufs;
    auto& reader = *t.client(1).dufs;
    auto miss = co_await reader.GetAttr("/late");  // caches a negative entry
    CO_ASSERT_EQ(miss.code(), StatusCode::kNotFound);
    CO_ASSERT_TRUE((co_await writer.Create("/late", 0644)).ok());
    co_await t.sim().Delay(sim::Ms(10));
    auto attr = co_await reader.GetAttr("/late");
    EXPECT_TRUE(attr.ok()) << attr.status();  // tombstone was dropped
  }(tb));
}

TEST(MetaCacheCoherenceTest, RemoteRenameInvalidatesViaWatchBeforeTtl) {
  Testbed tb(CoherenceConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& writer = *t.client(0).dufs;
    auto& reader = *t.client(1).dufs;
    CO_ASSERT_TRUE((co_await writer.Create("/f", 0644)).ok());
    CO_ASSERT_TRUE((co_await reader.GetAttr("/f")).ok());
    CO_ASSERT_TRUE((co_await writer.Rename("/f", "/g")).ok());
    co_await t.sim().Delay(sim::Ms(10));
    auto old_attr = co_await reader.GetAttr("/f");
    EXPECT_EQ(old_attr.code(), StatusCode::kNotFound);
    auto new_attr = co_await reader.GetAttr("/g");
    EXPECT_TRUE(new_attr.ok()) << new_attr.status();
  }(tb));
}

TEST(MetaCacheCoherenceTest, OwnMutationsInvalidateSynchronously) {
  Testbed tb(CoherenceConfig());
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& dufs = *t.client(0).dufs;
    CO_ASSERT_TRUE((co_await dufs.Create("/own", 0644)).ok());
    CO_ASSERT_TRUE((co_await dufs.GetAttr("/own")).ok());
    CO_ASSERT_TRUE((co_await dufs.Unlink("/own")).ok());
    // No delay: the client's own write dropped the entry synchronously.
    auto attr = co_await dufs.GetAttr("/own");
    EXPECT_EQ(attr.code(), StatusCode::kNotFound);
    CO_ASSERT_TRUE((co_await dufs.Chmod("/", 0700)).ok());
    auto root = co_await dufs.GetAttr("/");
    CO_ASSERT_TRUE(root.ok());
    EXPECT_EQ(root->mode, 0700u);
  }(tb));
}

TEST(MetaCacheCoherenceTest, DisabledCacheAlwaysFetches) {
  auto config = CoherenceConfig();
  config.dufs.enable_meta_cache = false;
  Testbed tb(config);
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& dufs = *t.client(0).dufs;
    auto& zk = *t.client(0).zk;
    CO_ASSERT_TRUE((co_await dufs.Mkdir("/d", 0755)).ok());
    const std::uint64_t before = zk.requests_sent();
    CO_ASSERT_TRUE((co_await dufs.GetAttr("/d")).ok());
    CO_ASSERT_TRUE((co_await dufs.GetAttr("/d")).ok());
    EXPECT_GE(zk.requests_sent(), before + 2);  // one Get per stat
    EXPECT_EQ(dufs.meta_cache().stats().hits, 0u);
  }(tb));
}

}  // namespace
}  // namespace dufs::core
