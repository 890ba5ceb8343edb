// The slab arena serves every coroutine frame in the tree; a frame that
// outgrows its top size class silently falls through to the global heap on
// every call. These tests pin that the largest frames we know of still fit.
#include "sim/arena.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "pfs/lustre.h"
#include "pfs/pvfs.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "testutil/co_assert.h"

namespace dufs::sim {
namespace {

#ifdef DUFS_ARENA_PASSTHROUGH
#define SKIP_IF_PASSTHROUGH() \
  GTEST_SKIP() << "the arena is a passthrough under AddressSanitizer"
#else
#define SKIP_IF_PASSTHROUGH() (void)0
#endif

// Keeps ~3 KiB live across a suspension, so it sits in the frame.
Task<int> ThreeKibFrame(Simulation& sim) {
  std::array<std::uint8_t, 3 * 1024> scratch{};
  scratch[0] = 1;
  scratch[scratch.size() - 1] = 2;
  co_await sim.Delay(1);
  int sum = 0;
  for (std::uint8_t b : scratch) sum += b;
  co_return sum;
}

TEST(ArenaTest, ThreeKibFrameIsServedByTheArena) {
  SKIP_IF_PASSTHROUGH();
  Simulation sim;
  const Arena::Stats before = Arena::ThreadLocal().stats();
  EXPECT_EQ(RunTask(sim, ThreeKibFrame(sim)), 3);
  const Arena::Stats after = Arena::ThreadLocal().stats();
  EXPECT_EQ(after.oversize, before.oversize);
  EXPECT_GT(after.allocs, before.allocs);
}

TEST(ArenaTest, ClassesCoverFourKib) {
  SKIP_IF_PASSTHROUGH();
  EXPECT_EQ(Arena::kMaxCellBytes, 4096u);
  Arena& arena = Arena::ThreadLocal();
  const std::uint64_t oversize = arena.stats().oversize;
  void* p = arena.Allocate(Arena::kMaxCellBytes);
  arena.Free(p, Arena::kMaxCellBytes);
  EXPECT_EQ(arena.stats().oversize, oversize);
  void* big = arena.Allocate(Arena::kMaxCellBytes + 1);
  arena.Free(big, Arena::kMaxCellBytes + 1);
  EXPECT_EQ(arena.stats().oversize, oversize + 1);
}

// mkdir, then create / chmod / rename / unlink of a few files.
void RunMetadataCycle(Simulation& sim, vfs::FileSystem& client) {
  RunTask(sim, [](vfs::FileSystem& fs) -> Task<void> {
    CO_ASSERT_OK(co_await fs.Mkdir("/d", 0755));
    for (int i = 0; i < 4; ++i) {
      const std::string path = "/d/f" + std::to_string(i);
      auto created = co_await fs.Create(path, 0644);
      CO_ASSERT_TRUE(created.ok());
      CO_ASSERT_OK(co_await fs.Chmod(path, 0600));
      CO_ASSERT_OK(co_await fs.Rename(path, path + "r"));
      CO_ASSERT_OK(co_await fs.Unlink(path + "r"));
    }
  }(client));
}

// The back-end servers' request handlers (LustreMds::Handle,
// PvfsServer::Handle) switch over every method in one coroutine, so theirs
// are the largest frames in the tree.
template <typename Instance, typename Client>
void ExpectCycleStaysInTheArena() {
  Simulation sim;
  net::Network net{sim};
  Instance backend{net, "fs0", 2};
  const net::NodeId client_node = net.AddNode("client");
  net::RpcEndpoint endpoint{net, client_node};
  Client client{endpoint, backend};
  const Arena::Stats before = Arena::ThreadLocal().stats();
  RunMetadataCycle(sim, client);
  const Arena::Stats after = Arena::ThreadLocal().stats();
  EXPECT_EQ(after.oversize, before.oversize);
  EXPECT_GT(after.allocs, before.allocs);
}

TEST(ArenaTest, LustreMetadataCycleStaysInTheArena) {
  SKIP_IF_PASSTHROUGH();
  ExpectCycleStaysInTheArena<pfs::LustreInstance, pfs::LustreClient>();
}

TEST(ArenaTest, PvfsMetadataCycleStaysInTheArena) {
  SKIP_IF_PASSTHROUGH();
  ExpectCycleStaysInTheArena<pfs::PvfsInstance, pfs::PvfsClient>();
}

}  // namespace
}  // namespace dufs::sim
