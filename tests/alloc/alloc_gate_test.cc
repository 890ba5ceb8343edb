// Allocation gate for the hot paths. This binary replaces the global
// operator new with a counting one and pins the heap allocations of:
//
//  - the engine once warm: coroutine delay loops, ScheduleFn timer churn and
//    spawn/teardown of tasks that finish at once. Event nodes and frames
//    come from the slab arena (sim/arena.h), so each of these is 0;
//  - the always-on observability path on an untraced tracer: a span's
//    construct/ArgInt/ArgStr/End, a three-arg Tracer::Complete once its
//    track's ring is reserved, and Incidents::RecordOp within one window.
//    All are 0;
//  - the steps every ZooKeeper replica runs per write, and a whole
//    replicated write on an 8-server ensemble;
//  - a compound reply: encoded into one buffer whatever its size, and read
//    back in place with one allocation;
//  - an append to a full committed log: nothing;
//  - an answered RPC call: its request and reply payloads, nothing else.
//
// It also counts the bytes each allocation requests, and pins the heap bytes
// a replica's tree costs per znode.
//
// Every count is exact and printed. A change that puts a std::function, a
// node container, a std::string or vector growth on one of these paths
// fails here rather than only showing up as host time in a benchmark, and
// one that removes an allocation must lower the pinned count with it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "net/rpc.h"
#include "obs/trace.h"
#include "obs/incident.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "zk/client.h"
#include "zk/database.h"
#include "zk/proto.h"
#include "zk/server.h"

namespace {

std::size_t g_allocs = 0;
std::size_t g_bytes = 0;  // requested by those allocations

// Heap allocations made while `fn` runs.
template <typename Fn>
std::size_t CountAllocs(Fn&& fn) {
  const std::size_t before = g_allocs;
  fn();
  return g_allocs - before;
}

// Bytes requested from the heap while `fn` runs (frees not subtracted).
template <typename Fn>
std::size_t CountBytes(Fn&& fn) {
  const std::size_t before = g_bytes;
  fn();
  return g_bytes - before;
}

// Prints a measured count and records it in the XML report.
void Report(const char* what, std::size_t n) {
  std::printf("[  ALLOCS  ] %s = %zu\n", what, n);
  ::testing::Test::RecordProperty(what, static_cast<int>(n));
}

}  // namespace

void* operator new(std::size_t bytes) {
  ++g_allocs;
  g_bytes += bytes;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return operator new(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  ++g_allocs;
  g_bytes += bytes;
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}
// Out of line: inlined where GCC also sees a new-expression, the free()
// trips -Wmismatched-new-delete, which cannot tell this operator new
// allocates with malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dufs::zk {
namespace {

constexpr std::uint8_t kDirTag = 'D';

std::vector<std::uint8_t> Record(std::uint8_t tag) {
  // A DUFS metadata record: the kind tag, then a fid-sized body.
  std::vector<std::uint8_t> data(40, 0x5a);
  data[0] = tag;
  return data;
}

// A replica holding /mdtest/d0/d1/d2, every component a directory, so a
// file under it is five components deep.
class WritePathAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* dir :
         {"/mdtest", "/mdtest/d0", "/mdtest/d0/d1", "/mdtest/d0/d1/d2"}) {
      ASSERT_TRUE(Apply(Op::Create(dir, Record(kDirTag)), true).result.ok());
    }
    // Warm the database's reused walk buffers, as any replica past its
    // first compound write has.
    ASSERT_TRUE(Apply(CreateFile("warm"), false).result.ok());
    ASSERT_TRUE(Apply(DeleteFile("warm"), false).result.ok());
  }

  static Op CreateFile(const std::string& name) {
    return Op::ResolveCreate("/mdtest/d0/d1/d2/" + name, Record('F'),
                             CreateMode::kPersistent, kDirTag, false);
  }
  static Op DeleteFile(const std::string& name) {
    return Op::ResolveDelete("/mdtest/d0/d1/d2/" + name, kAnyVersion, kDirTag,
                             false);
  }
  static Txn MakeTxn(Op op) {
    Txn txn;
    txn.session = 7;
    txn.time = 1'000'000;
    txn.trace = 12345;
    txn.op = std::move(op);
    return txn;
  }

  // The bytes a replica holds for a txn, and its view of them.
  struct Held {
    std::vector<std::uint8_t> bytes;
    TxnView view;
  };
  static Held Hold(Op op) {
    Held held{MakeTxn(std::move(op)).Encode(), {}};
    auto view = TxnView::Decode(held.bytes);
    EXPECT_TRUE(view.ok());
    if (view.ok()) held.view = *view;
    return held;
  }

  AppliedTxn& Apply(Op op, bool reply) {
    ++zxid_;
    return db_.Apply(MakeTxn(std::move(op)), zxid_, 0, reply);
  }

  Database db_;
  Zxid zxid_ = 0;
};

// The counts this write path makes; change one only with a reason the
// change itself gives. A replica applies the txn bytes it holds (TxnView)
// into the database's reused AppliedTxn, and every trigger path views those
// bytes, so it allocates only what the tree keeps.
//
// Create: the znode and its data. Its name fits the string's inline
// buffer, and the parent's child table already has a free slot.
constexpr std::size_t kResolveCreateAllocs = 2;
// Delete: nothing; the unlinked znode is freed, not allocated.
constexpr std::size_t kResolveDeleteAllocs = 0;
// BATCH PROPOSE: the payload, reserved once at its exact size.
constexpr std::size_t kProposeEncodeAllocs = 1;
// A compound reply: its buffer, reserved once at its exact size.
constexpr std::size_t kCompoundReplyEncodeAllocs = 1;
// Its view: the node table, sized once.
constexpr std::size_t kCompoundReplyDecodeAllocs = 1;

TEST_F(WritePathAllocTest, NonAnsweringResolveCreate) {
  const Held txn = Hold(CreateFile("file.000017"));
  const std::size_t n = CountAllocs([&] {
    const AppliedTxn& applied =
        db_.Apply(txn.view, ++zxid_, 0, /*reply=*/false);
    EXPECT_TRUE(applied.result.ok());
  });
  Report("allocs", n);
  EXPECT_EQ(n, kResolveCreateAllocs);
}

TEST_F(WritePathAllocTest, NonAnsweringResolveDelete) {
  ASSERT_TRUE(Apply(CreateFile("file.000017"), false).result.ok());
  const Held txn = Hold(DeleteFile("file.000017"));
  const std::size_t n = CountAllocs([&] {
    const AppliedTxn& applied =
        db_.Apply(txn.view, ++zxid_, 0, /*reply=*/false);
    EXPECT_TRUE(applied.result.ok());
  });
  Report("allocs", n);
  EXPECT_EQ(n, kResolveDeleteAllocs);
}

// The answering replica pays for the reply on top; it must still come out
// of the same single walk.
TEST_F(WritePathAllocTest, AnsweringResolveCreateAddsOnlyTheReply) {
  const Held txn = Hold(CreateFile("file.000018"));
  AppliedTxn* applied = nullptr;
  const std::size_t n = CountAllocs(
      [&] { applied = &db_.Apply(txn.view, ++zxid_, 0, /*reply=*/true); });
  // The reply: one buffer holding the prefix, the stat and the created path.
  Report("allocs", n);
  EXPECT_EQ(n, kResolveCreateAllocs + kCompoundReplyEncodeAllocs);
  auto reply = CompoundReply::Decode(std::move(applied->reply));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->prefix().size(), 4u);
  EXPECT_EQ(reply->created_path(), "/mdtest/d0/d1/d2/file.000018");
}

// Listing a directory costs the same whatever its size: the reply is
// written from the tree into one buffer, its entries sorted by name in a
// buffer the database reuses.
TEST_F(WritePathAllocTest, ReadDirPlusEncodeIsOneBufferWhateverTheSize) {
  for (const char* dir : {"/mdtest/small", "/mdtest/large"}) {
    ASSERT_TRUE(Apply(Op::Create(dir, Record(kDirTag)), false).result.ok());
  }
  for (int i = 0; i < 64; ++i) {
    const std::string name = "/file." + std::to_string(i);
    if (i < 2) {
      ASSERT_TRUE(
          Apply(Op::Create("/mdtest/small" + name, Record('F')), false)
              .result.ok());
    }
    ASSERT_TRUE(Apply(Op::Create("/mdtest/large" + name, Record('F')), false)
                    .result.ok());
  }
  const Op small = Op::ReadDirPlus("/mdtest/small", false, kDirTag);
  const Op large = Op::ReadDirPlus("/mdtest/large", false, kDirTag);
  // Warm the reused sort buffer, as any replica past its first listing of
  // a directory this large has.
  ASSERT_FALSE(db_.EncodeCompoundRead(large).empty());
  std::vector<std::uint8_t> small_reply;
  std::vector<std::uint8_t> large_reply;
  const std::size_t n_small =
      CountAllocs([&] { small_reply = db_.EncodeCompoundRead(small); });
  const std::size_t n_large =
      CountAllocs([&] { large_reply = db_.EncodeCompoundRead(large); });
  Report("allocs", n_large);
  EXPECT_EQ(n_small, kCompoundReplyEncodeAllocs);
  EXPECT_EQ(n_large, n_small);
  EXPECT_EQ(large_reply.size(), large_reply.capacity());

  std::size_t entries = 0;
  const std::size_t n_decode = CountAllocs([&] {
    auto view = CompoundReply::Decode(std::move(large_reply));
    EXPECT_TRUE(view.ok());
    if (view.ok()) entries = view->entries().size();
  });
  Report("decode_allocs", n_decode);
  EXPECT_EQ(entries, 64u);
  EXPECT_EQ(n_decode, kCompoundReplyDecodeAllocs);
}

// Trigger paths view the txn bytes, so two triggers cost no string.
TEST_F(WritePathAllocTest, TriggersViewTheTxnBytes) {
  const Held txn = Hold(CreateFile("file.000019"));
  const AppliedTxn& applied = db_.Apply(txn.view, ++zxid_, 0, false);
  ASSERT_EQ(applied.triggers.size(), 2u);
  EXPECT_EQ(applied.triggers[0].path, "/mdtest/d0/d1/d2/file.000019");
  EXPECT_EQ(applied.triggers[1].path, "/mdtest/d0/d1/d2");
  EXPECT_EQ(applied.triggers[0].path.data(), txn.view.op.path.data());
  EXPECT_EQ(applied.triggers[1].path.data(), txn.view.op.path.data());
}

// A write proposed alone: a batch of one.
TEST_F(WritePathAllocTest, ProposeEncode) {
  const BatchEntry one[] = {
      {0x100000007, MakeTxn(CreateFile("file.000017")).Encode()}};
  std::vector<std::uint8_t> payload;
  const std::size_t n =
      CountAllocs([&] { payload = EncodeBatchPropose(1, one); });
  Report("allocs", n);
  EXPECT_EQ(n, kProposeEncodeAllocs);
  EXPECT_EQ(payload.size(), payload.capacity());
  // A follower reads the BATCH PROPOSE in place.
  const std::size_t m = CountAllocs([&] {
    auto decoded = BatchProposeView::Decode(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->lo(), 0x100000007);
    EXPECT_EQ(decoded->hi(), 0x100000007);
    decoded->ForEach([](Zxid, const TxnView& txn) {
      EXPECT_EQ(txn.op.path, "/mdtest/d0/d1/d2/file.000017");
    });
  });
  Report("decode_allocs", m);
  EXPECT_EQ(m, 0u);
}

// The heap a replica's tree costs per znode, as requested bytes, for a
// stat-zipf-shaped namespace: 6 levels of directories d0..d3 (fan-out 4),
// each znode holding a 40-byte DUFS record. Counted over the creates, so it
// covers the znode, its record and the child slot arrays of its parent,
// including the ones the parent outgrew. A layout change that adds a heap
// object or a second copy of the name per znode moves it.
constexpr std::size_t kStatZipfTreeZnodes = 5'460;  // 4 + 16 + ... + 4096
constexpr std::size_t kStatZipfTreeBytes = 1'157'520;

TEST(DataTreeBytesTest, StatZipfShapedTreeBytesPerZnode) {
  constexpr int kFanOut = 4;
  constexpr int kDepth = 6;
  DataTree tree;
  std::vector<const DataTree::Znode*> level{&tree.root()};
  std::size_t bytes = 0;
  Zxid zxid = 0;
  for (int depth = 1; depth <= kDepth; ++depth) {
    std::vector<const DataTree::Znode*> next;
    for (const DataTree::Znode* parent : level) {
      for (int j = 0; j < kFanOut; ++j) {
        const std::string name = "d" + std::to_string(j);
        const std::uint8_t tag = depth < kDepth ? kDirTag : 'F';
        const DataTree::Znode* child = nullptr;
        bytes += CountBytes([&] {
          auto created =
              tree.CreateChild(*parent, name, Record(tag),
                               CreateMode::kPersistent, 0, ++zxid, 0);
          if (created.ok()) child = *created;
        });
        ASSERT_NE(child, nullptr);
        next.push_back(child);
      }
    }
    level = std::move(next);
  }
  ASSERT_EQ(tree.node_count(), kStatZipfTreeZnodes + 1);  // and the root
  Report("bytes", bytes);
  Report("bytes_per_znode", bytes / kStatZipfTreeZnodes);
  EXPECT_EQ(bytes, kStatZipfTreeBytes);
}

// A full committed log reuses the blocks of its byte and entry rings: once
// both have moved past a block boundary with the log full, appending txns
// of the same size allocates nothing.
TEST(CommittedLogAllocTest, AppendToAFullLogAllocatesNothing) {
  constexpr std::size_t kMaxEntries = 64;
  constexpr int kAppends = 4096;  // 4 entry blocks, 22 byte blocks
  CommittedLog log(kMaxEntries);
  const std::vector<std::uint8_t> txn(90, 0x5a);
  Zxid zxid = 0;
  for (int i = 0; i < kAppends; ++i) log.Append(++zxid, txn);
  const std::size_t n = CountAllocs([&] {
    for (int i = 0; i < kAppends; ++i) log.Append(++zxid, txn);
  });
  Report("allocs", n);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(log.size(), kMaxEntries);
  EXPECT_EQ(log.truncated_upto(), zxid - static_cast<Zxid>(kMaxEntries));
}

// A whole replicated write: a client attached to follower zk1 of an
// 8-server ensemble, counted from the call until the simulation is quiet.
// That covers the client's request and reply, FORWARD and its reply, the
// PROPOSE to 7 followers, 8 journal appends, the ACKs and COMMITs, 8
// applies and 8 committed-log appends. The counts are for a round of 200
// writes: 44 per create and 27 per delete (DESIGN.md §16.1 has their
// history). Of a create's 44, 16 are the tree on 8 replicas and 21 the
// PROPOSE, COMMIT and ACK payloads; waiting for replies and for the apply
// allocates nothing, and so does an append to a full committed log.
constexpr std::size_t kEnsembleCreateRoundAllocs = 8'800;
constexpr std::size_t kEnsembleDeleteRoundAllocs = 5'400;

class EnsembleWriteAllocTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kServers = 8;
  static constexpr int kWrites = 200;
  static constexpr std::size_t kLogEntries = 128;

  void SetUp() override {
#if defined(DUFS_ARENA_PASSTHROUGH) || defined(DUFS_AUDIT)
    GTEST_SKIP() << "arena passthrough or audit build allocates per event";
#endif
    ZkEnsembleConfig config;
    // Shorter than a round, so the warm-up rounds fill every replica's
    // committed log and the measured ones append to a full log.
    config.max_log_entries = kLogEntries;
    for (std::size_t i = 0; i < kServers; ++i) {
      config.servers.push_back(net_.AddNode("zk" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < kServers; ++i) {
      server_eps_.push_back(
          std::make_unique<net::RpcEndpoint>(net_, config.servers[i]));
      servers_.push_back(
          std::make_unique<ZkServer>(*server_eps_[i], config, i));
      servers_[i]->Start();
    }
    client_ep_ = std::make_unique<net::RpcEndpoint>(
        net_, net_.AddNode("client0"));
    ZkClientConfig cc;
    cc.servers = config.servers;
    cc.attach_index = 1;
    client_ = std::make_unique<ZkClient>(*client_ep_, cc);
    sim::RunTask(sim_, [](ZkClient& c) -> sim::Task<void> {
      EXPECT_TRUE((co_await c.Connect()).ok());
      EXPECT_TRUE((co_await c.ResolveCreate("/w", Record(kDirTag),
                                            CreateMode::kPersistent, kDirTag))
                      .ok());
    }(*client_));
    // Warm every pool and buffer on the path with a first round.
    Round(true);
    Round(false);
  }

  void TearDown() override { sim_.Shutdown(); }

  // kWrites creates (or deletes) of /w/file.NNNNNN, one after another.
  void Round(bool create) {
    sim::RunTask(sim_, [](ZkClient& c, bool create) -> sim::Task<void> {
      for (int i = 0; i < kWrites; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "/w/file.%06d", i);
        if (create) {
          auto reply = co_await c.ResolveCreate(
              name, Record('F'), CreateMode::kPersistent, kDirTag);
          EXPECT_TRUE(reply.ok() && reply->ok());
        } else {
          auto reply = co_await c.ResolveDelete(name, kAnyVersion, kDirTag);
          EXPECT_TRUE(reply.ok() && reply->ok());
        }
      }
    }(*client_, create));
  }

  std::size_t RoundAllocs(bool create) {
    return CountAllocs([&] { Round(create); });
  }

  sim::Simulation sim_{1};
  net::Network net_{sim_};
  std::vector<std::unique_ptr<net::RpcEndpoint>> server_eps_;
  std::vector<std::unique_ptr<ZkServer>> servers_;
  std::unique_ptr<net::RpcEndpoint> client_ep_;
  std::unique_ptr<ZkClient> client_;
};

TEST_F(EnsembleWriteAllocTest, ResolveCreateAndResolveDelete) {
  const std::size_t create = RoundAllocs(true);
  const std::size_t del = RoundAllocs(false);
  Report("create_round_allocs", create);
  Report("delete_round_allocs", del);
  EXPECT_EQ(create, kEnsembleCreateRoundAllocs);
  EXPECT_EQ(del, kEnsembleDeleteRoundAllocs);
  for (const auto& server : servers_) {
    EXPECT_EQ(server->db().last_applied(), servers_[0]->db().last_applied());
  }
}

}  // namespace
}  // namespace dufs::zk

namespace dufs::sim {
namespace {

// Each engine case runs one phase to warm the thread's arena freelists and
// then counts an identical second phase. Under ASan the arena passes every
// cell through to the global heap (one allocation per event), and the
// DUFS_AUDIT registry allocates per frame, so neither build can hold 0.
class EngineAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(DUFS_ARENA_PASSTHROUGH) || defined(DUFS_AUDIT)
    GTEST_SKIP() << "arena passthrough or audit build allocates per event";
#endif
  }
};

Task<void> DelayLoop(Simulation* sim, int rounds, int salt) {
  for (int i = 0; i < rounds; ++i) {
    co_await sim->Delay(1 + (salt + i * 31) % 977);
  }
}

Task<void> Noop() { co_return; }

Task<void> ServeLoop(FifoServer* server, int rounds, int salt) {
  for (int i = 0; i < rounds; ++i) {
    co_await server->Serve(1 + (salt + i * 31) % 977);
  }
}

// Self-rescheduling timers with delays from 1 ns to 1 s, which covers every
// level of the wheel below the ring.
struct Churn {
  Simulation* sim = nullptr;
  std::uint64_t left = 0;

  void Arm() {
    --left;
    const Duration delay =
        sim->rng().NextBelow(64) == 0
            ? 1 + static_cast<Duration>(sim->rng().NextBelow(Sec(1)))
            : 1 + static_cast<Duration>(sim->rng().NextBelow(Ms(1)));
    sim->ScheduleFn(delay, [this] {
      if (left > 0) Arm();
    });
  }
};

TEST_F(EngineAllocTest, CoroutineDelayLoopsAllocateNothing) {
  Simulation sim(1);
  auto phase = [&sim] {
    CurrentSimulationScope scope(&sim);
    for (int p = 0; p < 64; ++p) sim.Spawn(DelayLoop(&sim, 1000, p * 7919));
    sim.Run();
  };
  phase();
  const std::uint64_t warm = sim.events_processed();
  const std::size_t n = CountAllocs(phase);
  Report("allocs", n);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(sim.events_processed() - warm, 64'000u);
}

// The counted phase crosses a 2^36 ns (~68.7 s) boundary of sim time, where
// every timer armed just before it lands in the wheel's top ring rather
// than in the sorted overflow map.
TEST_F(EngineAllocTest, ScheduleFnChurnAllocatesNothing) {
  Simulation sim(1);
  sim.ScheduleFn(Sec(56), [] {});
  sim.Run();
  Churn churn{&sim, 0};
  auto phase = [&sim, &churn] {
    churn.left = 250'000;
    for (int i = 0; i < 256; ++i) churn.Arm();
    sim.Run();
  };
  phase();
  const std::uint64_t warm = sim.events_processed();
  constexpr SimTime kBoundary = SimTime(1) << 36;
  EXPECT_LT(sim.now(), kBoundary);
  const std::size_t n = CountAllocs(phase);
  Report("allocs", n);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(sim.events_processed() - warm, 250'000u);
  EXPECT_GT(sim.now(), kBoundary);
}

// 50 coroutines join 2,000 times each on 8 servers: 100k joins, with up to
// 42 jobs waiting at once.
TEST_F(EngineAllocTest, FifoServerJoinsAllocateNothing) {
  Simulation sim(1);
  FifoServer server(sim, 8);
  auto phase = [&sim, &server] {
    CurrentSimulationScope scope(&sim);
    for (int p = 0; p < 50; ++p) {
      sim.Spawn(ServeLoop(&server, 2000, p * 7919));
    }
    sim.Run();
  };
  phase();
  const std::uint64_t warm = sim.events_processed();
  const std::size_t n = CountAllocs(phase);
  Report("allocs", n);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(sim.events_processed() - warm, 100'000u);
}

TEST_F(EngineAllocTest, SpawnOfFinishedTasksAllocatesNothing) {
  Simulation sim(1);
  auto phase = [&sim] {
    CurrentSimulationScope scope(&sim);
    for (int i = 0; i < 100'000; ++i) sim.Spawn(Noop());
  };
  phase();
  const std::size_t n = CountAllocs(phase);
  Report("allocs", n);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(sim.live_detached_tasks(), 0u);
}

}  // namespace
}  // namespace dufs::sim

namespace dufs::obs {
namespace {

// A span as the emit sites complete one (nic-tx's three int args) on a
// bound tracer that is not enabled, as in every run without --trace or
// --flight-dump-dir: nothing is recorded.
TEST(ObsAllocTest, UnarmedCompleteAllocatesNothing) {
  constexpr TrackId kTracks = 8;
  sim::Simulation sim(1);
  Tracer tracer;
  tracer.Bind(&sim);
  const std::size_t n = CountAllocs([&tracer] {
    for (int i = 0; i < 100'000; ++i) {
      tracer.Complete(static_cast<TrackId>(i) % kTracks, "nic-tx", "net", i, 7,
                      static_cast<TraceId>(i),
                      {{"wait_ns", i % 3}, {"tx_ns", 7}, {"bytes", 120}});
    }
  });
  Report("allocs", n);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(tracer.traced(), 0u);
}

// A span on a bound tracer that is not enabled: construct, ArgInt, ArgStr
// (its value is not copied) and End.
TEST(ObsAllocTest, UntracedSpanAllocatesNothing) {
  sim::Simulation sim(1);
  Tracer tracer;
  tracer.Bind(&sim);
  const TrackId track = tracer.Track("client0");
  const std::string path = "/a/path/longer/than/the/small/string/buffer";
  auto span_once = [&tracer, track, &path](int i) {
    Span span(&tracer, track, "zk-rpc", "zk");
    span.ArgInt("cache_hits", i);
    span.ArgStr("path", path);
    span.End();
  };
  span_once(0);
  const std::size_t n = CountAllocs([&span_once] {
    for (int i = 0; i < 100'000; ++i) span_once(i);
  });
  Report("allocs", n);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(tracer.traced(), 0u);
}

TEST(ObsAllocTest, IncidentsRecordOpAllocatesNothingWithinAWindow) {
  constexpr TrackId kTracks = 4;
  sim::Simulation sim(1);
  Incidents incidents;
  incidents.Bind(&sim, nullptr);
  incidents.AddSlo(SloSpec{"create", sim::Us(500), 0.01});
  // The first sample registers the class; the first per track sizes its
  // per-node histogram.
  for (TrackId t = 0; t < kTracks; ++t) incidents.RecordOp("create", t, 100);
  const std::size_t n = CountAllocs([&incidents] {
    for (int i = 0; i < 100'000; ++i) {
      incidents.RecordOp("create", static_cast<TrackId>(i) % kTracks,
                         100 + (i % 1000) * 997);
    }
  });
  Report("allocs", n);
  EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace dufs::obs

namespace dufs::net {
namespace {

// An answered call on a warm endpoint: its wait lives in the calling frame
// and its deadline in the endpoint's reused ring, so the call allocates its
// request payload and the handler its reply payload, and nothing else.
class RpcAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(DUFS_ARENA_PASSTHROUGH) || defined(DUFS_AUDIT)
    GTEST_SKIP() << "arena passthrough or audit build allocates per event";
#endif
  }
};

constexpr std::uint16_t kEcho = 1;
constexpr std::size_t kCallPayloadAllocs = 2;  // request and reply
constexpr int kCalls = 1000;

// kCalls calls of 16 bytes, one after another, each answered with 17.
void CallRound(sim::Simulation& sim, RpcEndpoint& client, NodeId server) {
  sim::RunTask(sim, [](RpcEndpoint& c, NodeId dst) -> sim::Task<void> {
    for (int i = 0; i < kCalls; ++i) {
      auto reply = co_await c.Call(dst, kEcho, Payload(16, 1));
      EXPECT_TRUE(reply.ok() && reply->size() == 17);
    }
  }(client, server));
}

TEST_F(RpcAllocTest, AnsweredCallAllocatesOnlyItsPayloads) {
  sim::Simulation sim(1);
  Network net(sim);
  const NodeId client_node = net.AddNode("client");
  const NodeId server_node = net.AddNode("server");
  RpcEndpoint client(net, client_node);
  RpcEndpoint server(net, server_node);
  server.RegisterHandler(kEcho, [](NodeId, Payload req) -> sim::Task<RpcResult> {
    co_return Payload(req.size() + 1, 0);
  });
  auto round = [&] { CallRound(sim, client, server_node); };
  round();
  const std::size_t n = CountAllocs(round);
  Report("allocs_per_call", n / kCalls);
  EXPECT_EQ(n, kCallPayloadAllocs * kCalls);
  sim.Shutdown();
}

}  // namespace
}  // namespace dufs::net
