// Compound metadata ops at the DUFS layer (DESIGN.md §13): cold deep-path
// operations cost exactly one ZooKeeper RPC with compound_ops on (vs O(depth)
// for the FUSE-faithful walk ablation), and every reply seeds the metadata
// cache — prefix positives, first-missing negatives, ReadDirPlus children.
#include "core/dufs_client.h"

#include <gtest/gtest.h>

#include <string>

#include "mdtest/testbed.h"
#include "sim/task.h"
#include "testutil/co_assert.h"

namespace dufs::core {
namespace {

using mdtest::BackendKind;
using mdtest::Testbed;
using mdtest::TestbedConfig;

TestbedConfig Config(bool compound_ops) {
  TestbedConfig config;
  config.zk_servers = 3;
  config.client_nodes = 2;
  config.backend = BackendKind::kMemFs;
  config.backend_instances = 2;
  config.dufs.compound_ops = compound_ops;
  return config;
}

std::string DeepPath(int depth) {
  std::string p;
  for (int i = 1; i <= depth; ++i) p += "/d" + std::to_string(i);
  return p;
}

sim::Task<void> BuildDeepDirs(DufsClient& fs, int depth) {  // dufs-lint: allow(coro-ref-param)
  for (int i = 1; i <= depth; ++i) {
    CO_ASSERT_OK(co_await fs.Mkdir(DeepPath(i), 0755));
  }
}

constexpr int kDepth = 6;

// The headline property: a cold stat of a depth-6 directory is ONE ZooKeeper
// round trip — the server walks the chain, not the client.
TEST(DufsCompoundTest, ColdDeepStatIsOneRpc) {
  Testbed tb(Config(/*compound_ops=*/true));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    co_await BuildDeepDirs(*t.client(0).dufs, kDepth);
    // Client 1 has a fresh cache: nothing under /d1 has been seen.
    auto& zk = *t.client(1).zk;
    const auto before = zk.requests_sent();
    auto attr = co_await t.client(1).dufs->GetAttr(DeepPath(kDepth));
    CO_ASSERT_TRUE(attr.ok());
    EXPECT_TRUE(attr->IsDir());
    EXPECT_EQ(zk.requests_sent() - before, 1u);
  }(tb));
}

// The ablation: with compound_ops off the client resolves dentry-by-dentry
// like the kernel VFS, so the same cold stat costs one RPC per component.
TEST(DufsCompoundTest, ColdDeepStatWalksPerComponentWhenDisabled) {
  Testbed tb(Config(/*compound_ops=*/false));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    co_await BuildDeepDirs(*t.client(0).dufs, kDepth);
    auto& zk = *t.client(1).zk;
    const auto before = zk.requests_sent();
    auto attr = co_await t.client(1).dufs->GetAttr(DeepPath(kDepth));
    CO_ASSERT_TRUE(attr.ok());
    EXPECT_EQ(zk.requests_sent() - before, static_cast<std::uint64_t>(kDepth));
  }(tb));
}

// One resolve seeds the whole chain: follow-up stats of the terminal AND of
// every ancestor are cache hits (zero further RPCs).
TEST(DufsCompoundTest, ResolveSeedsPrefixAndTerminal) {
  Testbed tb(Config(/*compound_ops=*/true));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    co_await BuildDeepDirs(*t.client(0).dufs, kDepth);
    auto& fs = *t.client(1).dufs;
    auto& zk = *t.client(1).zk;
    CO_ASSERT_TRUE((co_await fs.GetAttr(DeepPath(kDepth))).ok());
    const auto before = zk.requests_sent();
    for (int i = 1; i <= kDepth; ++i) {
      auto attr = co_await fs.GetAttr(DeepPath(i));
      CO_ASSERT_TRUE(attr.ok());
      EXPECT_TRUE(attr->IsDir());
    }
    EXPECT_EQ(zk.requests_sent() - before, 0u);
  }(tb));
}

void ExpectSameAttr(const vfs::FileAttr& a, const vfs::FileAttr& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.inode, b.inode);
  EXPECT_EQ(a.nlink, b.nlink);
  EXPECT_EQ(a.ctime, b.ctime);
  EXPECT_EQ(a.mtime, b.mtime);
  EXPECT_EQ(a.atime, b.atime);
}

// A miss answers from the record the seeder decoded, a hit from the cache
// entry seeded with it: both give the same record and stat.
TEST(DufsCompoundTest, LookupMissAndFollowingHitAgree) {
  Testbed tb(Config(/*compound_ops=*/true));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    co_await BuildDeepDirs(*t.client(0).dufs, 2);
    const std::string file = DeepPath(2) + "/f";
    CO_ASSERT_TRUE((co_await t.client(0).dufs->Create(file, 0644)).ok());
    auto& fs = *t.client(1).dufs;
    auto& zk = *t.client(1).zk;
    for (const std::string& path : {DeepPath(2), file}) {
      const auto before = zk.requests_sent();
      auto miss = co_await fs.GetAttr(path);
      CO_ASSERT_TRUE(miss.ok());
      EXPECT_EQ(zk.requests_sent() - before, 1u) << path;
      auto hit = co_await fs.GetAttr(path);
      CO_ASSERT_TRUE(hit.ok());
      EXPECT_EQ(zk.requests_sent() - before, 1u) << path;
      ExpectSameAttr(*miss, *hit);
    }
  }(tb));
}

// A partial miss seeds a negative entry for the first missing component
// (plus positives for the resolved prefix) — the satellite fix: re-probing
// the missing component or its existing ancestors costs nothing.
TEST(DufsCompoundTest, PartialMissSeedsNegativeComponent) {
  Testbed tb(Config(/*compound_ops=*/true));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    co_await BuildDeepDirs(*t.client(0).dufs, 2);
    auto& fs = *t.client(1).dufs;
    auto& zk = *t.client(1).zk;
    const auto before = zk.requests_sent();
    auto miss = co_await fs.GetAttr("/d1/d2/nope/deeper");
    EXPECT_EQ(miss.code(), StatusCode::kNotFound);
    EXPECT_EQ(zk.requests_sent() - before, 1u);
    // First missing component: negative hit, no RPC.
    const auto after_miss = zk.requests_sent();
    EXPECT_EQ((co_await fs.GetAttr("/d1/d2/nope")).code(),
              StatusCode::kNotFound);
    // Resolved prefix: positive hits, no RPC.
    EXPECT_TRUE((co_await fs.GetAttr("/d1")).ok());
    EXPECT_TRUE((co_await fs.GetAttr("/d1/d2")).ok());
    EXPECT_EQ(zk.requests_sent() - after_miss, 0u);
  }(tb));
}

// ReadDirPlus returns every entry's record in the one reply and seeds the
// cache with them, so the classic readdir-then-stat storm is all hits.
TEST(DufsCompoundTest, ReadDirPlusSeedsChildStats) {
  Testbed tb(Config(/*compound_ops=*/true));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& builder = *t.client(0).dufs;
    CO_ASSERT_OK(co_await builder.Mkdir("/dir", 0755));
    CO_ASSERT_TRUE((co_await builder.Create("/dir/f1", 0644)).ok());
    CO_ASSERT_TRUE((co_await builder.Create("/dir/f2", 0644)).ok());
    CO_ASSERT_OK(co_await builder.Mkdir("/dir/sub", 0755));
    auto& fs = *t.client(1).dufs;
    auto& zk = *t.client(1).zk;
    const auto before = zk.requests_sent();
    auto listing = co_await fs.ReadDir("/dir");
    CO_ASSERT_TRUE(listing.ok());
    EXPECT_EQ(zk.requests_sent() - before, 1u);
    CO_ASSERT_TRUE(listing->size() == 3u);
    EXPECT_EQ((*listing)[0].name, "f1");
    EXPECT_EQ((*listing)[0].type, vfs::FileType::kRegular);
    EXPECT_EQ((*listing)[2].name, "sub");
    EXPECT_EQ((*listing)[2].type, vfs::FileType::kDirectory);
    // The stat storm over the listing: zero further ZooKeeper traffic
    // (file stats still consult the back-end for size, which is not ZK).
    const auto after_list = zk.requests_sent();
    for (const auto& entry : *listing) {
      CO_ASSERT_TRUE((co_await fs.GetAttr("/dir/" + entry.name)).ok());
    }
    EXPECT_EQ(zk.requests_sent() - after_list, 0u);
  }(tb));
}

// Cold deep create folds parent resolution + parent-type check + znode
// create into one replicated op, and the reply seeds terminal + ancestors.
TEST(DufsCompoundTest, ColdDeepCreateIsOneRpcAndSeeds) {
  Testbed tb(Config(/*compound_ops=*/true));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    co_await BuildDeepDirs(*t.client(0).dufs, 3);
    auto& fs = *t.client(1).dufs;
    auto& zk = *t.client(1).zk;
    const auto before = zk.requests_sent();
    auto created = co_await fs.Create("/d1/d2/d3/f", 0644);
    CO_ASSERT_TRUE(created.ok());
    EXPECT_EQ(zk.requests_sent() - before, 1u);
    const auto after_create = zk.requests_sent();
    CO_ASSERT_TRUE((co_await fs.GetAttr("/d1/d2/d3/f")).ok());
    CO_ASSERT_TRUE((co_await fs.GetAttr("/d1/d2")).ok());
    EXPECT_EQ(zk.requests_sent() - after_create, 0u);
    // Missing ancestors / file ancestors surface the POSIX codes without a
    // client-side walk.
    EXPECT_EQ((co_await fs.Create("/d1/nope/x", 0644)).code(),
              StatusCode::kNotFound);
    EXPECT_EQ((co_await fs.Create("/d1/d2/d3/f/x", 0644)).code(),
              StatusCode::kNotADirectory);
  }(tb));
}

// Unlink is a single resolve+delete txn — no lookup round trip, no version
// retry loop — and the reply seeds a negative for the gone terminal.
TEST(DufsCompoundTest, ColdUnlinkIsOneRpcAndSeedsNegative) {
  Testbed tb(Config(/*compound_ops=*/true));
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto& builder = *t.client(0).dufs;
    CO_ASSERT_OK(co_await builder.Mkdir("/dir", 0755));
    CO_ASSERT_TRUE((co_await builder.Create("/dir/f", 0644)).ok());
    auto& fs = *t.client(1).dufs;
    auto& zk = *t.client(1).zk;
    const auto before = zk.requests_sent();
    CO_ASSERT_OK(co_await fs.Unlink("/dir/f"));
    EXPECT_EQ(zk.requests_sent() - before, 1u);
    const auto after = zk.requests_sent();
    EXPECT_EQ((co_await fs.GetAttr("/dir/f")).code(), StatusCode::kNotFound);
    EXPECT_EQ(zk.requests_sent() - after, 0u);
    // Directory terminal keeps the POSIX distinction through the txn.
    EXPECT_EQ((co_await fs.Unlink("/dir")).code(), StatusCode::kIsADirectory);
  }(tb));
}

}  // namespace
}  // namespace dufs::core
