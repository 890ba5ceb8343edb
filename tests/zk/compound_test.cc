// Compound metadata ops (DESIGN.md §13): proto round-trips, server-side
// resolution against a populated Database, and ensemble-level semantics
// (replication, concurrent delete-under-resolve, per-component watches).
#include <gtest/gtest.h>

#include <memory>
#include <span>

#include "net/rpc.h"
#include "sim/gather.h"
#include "sim/task.h"
#include "testutil/co_assert.h"
#include "wire/buffer.h"
#include "zk/client.h"
#include "zk/database.h"
#include "zk/server.h"

namespace dufs::zk {
namespace {

std::vector<std::uint8_t> Bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// The client layer tags directory records with a leading 'D' here — any
// nonzero byte works; the server only compares data[0] against Op::dir_tag.
constexpr std::uint8_t kTag = 'D';
std::vector<std::uint8_t> DirData() { return Bytes("Ddir"); }
std::vector<std::uint8_t> FileData(std::string_view v = "Ffile") {
  return Bytes(v);
}

// A reply's data view as bytes, for comparison.
std::vector<std::uint8_t> Vec(std::span<const std::uint8_t> data) {
  return std::vector<std::uint8_t>(data.begin(), data.end());
}

// Decodes a reply the test expects to be well-formed (a malformed one
// throws, which fails the test).
CompoundReply Decoded(std::vector<std::uint8_t> bytes) {
  auto reply = CompoundReply::Decode(std::move(bytes));
  EXPECT_TRUE(reply.ok()) << reply.status();
  return std::move(reply).value();
}

// ------------------------------------------------------ proto round-trips --

template <typename T, typename Decoder>
T RoundTrip(const T& in, Decoder decode) {
  wire::BufferWriter w;
  in.Encode(w);
  auto bytes = w.Take();
  EXPECT_EQ(in.EncodedSize(), bytes.size());  // writers reserve by it
  wire::BufferReader r(bytes);
  auto out = decode(r);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(r.remaining(), 0u);
  return std::move(*out);
}

TEST(CompoundProtoTest, OpRoundTripAllFourTypes) {
  auto resolve = RoundTrip(Op::ResolvePath("/a/b/c", /*watch=*/true, kTag),
                           Op::Decode);
  EXPECT_EQ(resolve.type, OpType::kResolvePath);
  EXPECT_EQ(resolve.path, "/a/b/c");
  EXPECT_TRUE(resolve.watch);
  EXPECT_EQ(resolve.dir_tag, kTag);

  auto readdir = RoundTrip(Op::ReadDirPlus("/a", /*watch=*/false, kTag),
                           Op::Decode);
  EXPECT_EQ(readdir.type, OpType::kReadDirPlus);
  EXPECT_FALSE(readdir.watch);
  EXPECT_EQ(readdir.dir_tag, kTag);

  auto create = RoundTrip(
      Op::ResolveCreate("/a/b/f", FileData(), CreateMode::kPersistent, kTag,
                        /*watch=*/true),
      Op::Decode);
  EXPECT_EQ(create.type, OpType::kResolveCreate);
  EXPECT_EQ(create.data, FileData());
  EXPECT_EQ(create.mode, CreateMode::kPersistent);
  EXPECT_TRUE(create.watch);

  auto del = RoundTrip(Op::ResolveDelete("/a/b/f", 7, kTag, /*watch=*/false),
                       Op::Decode);
  EXPECT_EQ(del.type, OpType::kResolveDelete);
  EXPECT_EQ(del.version, 7);
  EXPECT_EQ(del.dir_tag, kTag);
  EXPECT_FALSE(del.watch);

  // Write classification: compound reads stay reads, writes replicate.
  EXPECT_FALSE(IsWrite(OpType::kResolvePath));
  EXPECT_FALSE(IsWrite(OpType::kReadDirPlus));
  EXPECT_TRUE(IsWrite(OpType::kResolveCreate));
  EXPECT_TRUE(IsWrite(OpType::kResolveDelete));
  for (auto t : {OpType::kResolvePath, OpType::kReadDirPlus,
                 OpType::kResolveCreate, OpType::kResolveDelete}) {
    EXPECT_TRUE(IsCompound(t));
  }
  EXPECT_FALSE(IsCompound(OpType::kCreate));
}

TEST(CompoundProtoTest, LegacyOpDefaultsSurviveRoundTrip) {
  auto op = RoundTrip(Op::Create("/x", FileData()), Op::Decode);
  EXPECT_EQ(op.dir_tag, 0);
  EXPECT_FALSE(op.watch);
}

// A reply frame written field by field as CompoundReply documents it, so
// the decoder is checked against the format rather than against the one
// encoder.
TEST(CompoundProtoTest, CompoundReplyDecodesPrefixAndEntries) {
  ZnodeStat a_stat;
  a_stat.czxid = 5;
  a_stat.version = 3;
  ZnodeStat b_stat;
  b_stat.num_children = 4;
  ZnodeStat f_stat;
  f_stat.mzxid = 9;
  wire::BufferWriter w;
  w.WriteU8(static_cast<std::uint8_t>(StatusCode::kNotFound));
  w.WriteString("");      // created path
  ZnodeStat{}.Encode(w);  // terminal stat
  w.WriteBytes({});       // terminal data
  w.WriteVarint(0);       // children
  w.WriteVarint(2);       // resolved depth
  w.WriteVarint(2);       // prefix
  w.WriteString("a");
  a_stat.Encode(w);
  w.WriteBytes(DirData());
  w.WriteString("b");
  b_stat.Encode(w);
  w.WriteBytes(DirData());
  w.WriteVarint(1);  // entries
  w.WriteString("f");
  f_stat.Encode(w);
  w.WriteBytes(FileData());
  w.WriteVarint(0);  // multi results

  const CompoundReply out = Decoded(w.Take());
  EXPECT_EQ(out.code(), StatusCode::kNotFound);
  EXPECT_EQ(out.resolved_depth(), 2u);
  ASSERT_EQ(out.prefix().size(), 2u);
  EXPECT_EQ(out.prefix()[0].name, "a");
  EXPECT_EQ(out.prefix()[0].stat().czxid, 5);
  EXPECT_EQ(out.prefix()[0].stat().version, 3);
  EXPECT_EQ(Vec(out.prefix()[0].data), DirData());
  EXPECT_EQ(out.prefix()[1].name, "b");
  EXPECT_EQ(out.prefix()[1].stat().num_children, 4);
  ASSERT_EQ(out.entries().size(), 1u);
  EXPECT_EQ(out.entries()[0].name, "f");
  EXPECT_EQ(out.entries()[0].stat().mzxid, 9);
  EXPECT_EQ(Vec(out.entries()[0].data), FileData());
}

TEST(CompoundProtoTest, OpTypeNamesAreStable) {
  EXPECT_STREQ(OpTypeName(OpType::kResolvePath), "resolvePath");
  EXPECT_STREQ(OpTypeName(OpType::kReadDirPlus), "readDirPlus");
  EXPECT_STREQ(OpTypeName(OpType::kResolveCreate), "resolveCreate");
  EXPECT_STREQ(OpTypeName(OpType::kResolveDelete), "resolveDelete");
}

// ------------------------------------------------ database-level behavior --

class CompoundDatabaseTest : public ::testing::Test {
 protected:
  Database db_;
  Zxid zxid_ = 0;

  AppliedTxn Apply(Op op, SessionId session = 1) {
    Txn txn;
    txn.session = session;
    txn.op = std::move(op);
    ++zxid_;
    return db_.Apply(txn, zxid_, zxid_ * 100);
  }

  CompoundReply Read(const Op& op) {
    return Decoded(db_.EncodeCompoundRead(op));
  }

  // Builds /a/b/c (dirs) with file /a/b/c/f.
  void BuildChain() {
    ASSERT_TRUE(Apply(Op::Create("/a", DirData())).result.ok());
    ASSERT_TRUE(Apply(Op::Create("/a/b", DirData())).result.ok());
    ASSERT_TRUE(Apply(Op::Create("/a/b/c", DirData())).result.ok());
    ASSERT_TRUE(Apply(Op::Create("/a/b/c/f", FileData())).result.ok());
  }
};

TEST_F(CompoundDatabaseTest, ResolveDeepChainHit) {
  BuildChain();
  auto res = Read(Op::ResolvePath("/a/b/c/f", false, kTag));
  EXPECT_EQ(res.code(), StatusCode::kOk);
  EXPECT_EQ(res.resolved_depth(), 4u);
  ASSERT_EQ(res.prefix().size(), 3u);  // terminal excluded
  EXPECT_EQ(res.prefix()[0].name, "a");
  EXPECT_EQ(res.prefix()[1].name, "b");
  EXPECT_EQ(res.prefix()[2].name, "c");
  EXPECT_EQ(Vec(res.prefix()[2].data), DirData());
  EXPECT_EQ(Vec(res.data()), FileData());
  EXPECT_GT(res.stat().czxid, 0);
}

TEST_F(CompoundDatabaseTest, ResolvePartialMissReportsPrefixDepth) {
  BuildChain();
  auto res = Read(Op::ResolvePath("/a/b/x/y", false, kTag));
  EXPECT_EQ(res.code(), StatusCode::kNotFound);
  EXPECT_EQ(res.resolved_depth(), 2u);
  ASSERT_EQ(res.prefix().size(), 2u);  // exactly the components that exist
  EXPECT_EQ(res.prefix()[0].name, "a");
  EXPECT_EQ(res.prefix()[1].name, "b");
}

TEST_F(CompoundDatabaseTest, ResolveInteriorFileIsNotADirectory) {
  BuildChain();
  auto res = Read(Op::ResolvePath("/a/b/c/f/deeper", false, kTag));
  EXPECT_EQ(res.code(), StatusCode::kNotADirectory);
  EXPECT_EQ(res.resolved_depth(), 4u);  // offender included
  ASSERT_EQ(res.prefix().size(), 4u);
  EXPECT_EQ(res.prefix().back().name, "f");
  // Without the tag the guard is off: plain existence walk -> the file has
  // no children, so the next component is simply absent.
  auto untagged = Read(Op::ResolvePath("/a/b/c/f/deeper", false, 0));
  EXPECT_EQ(untagged.code(), StatusCode::kNotFound);
  EXPECT_EQ(untagged.resolved_depth(), 4u);
}

TEST_F(CompoundDatabaseTest, ResolveRootHasNoComponents) {
  auto res = Read(Op::ResolvePath("/", false, kTag));
  EXPECT_EQ(res.code(), StatusCode::kOk);
  EXPECT_EQ(res.resolved_depth(), 0u);
  EXPECT_TRUE(res.prefix().empty());
}

TEST_F(CompoundDatabaseTest, ReadDirPlusListsEntriesWithStatAndData) {
  BuildChain();
  ASSERT_TRUE(Apply(Op::Create("/a/b/c/g", FileData("Fother"))).result.ok());
  auto res = Read(Op::ReadDirPlus("/a/b/c", false, kTag));
  EXPECT_EQ(res.code(), StatusCode::kOk);
  EXPECT_EQ(res.resolved_depth(), 3u);
  ASSERT_EQ(res.entries().size(), 2u);  // sorted map order
  EXPECT_EQ(res.entries()[0].name, "f");
  EXPECT_EQ(Vec(res.entries()[0].data), FileData());
  EXPECT_EQ(res.entries()[1].name, "g");
  EXPECT_EQ(Vec(res.entries()[1].data), FileData("Fother"));
  EXPECT_GT(res.entries()[0].stat().czxid, 0);
}

TEST_F(CompoundDatabaseTest, ReadDirPlusOnFileIsNotADirectory) {
  BuildChain();
  auto res = Read(Op::ReadDirPlus("/a/b/c/f", false, kTag));
  EXPECT_EQ(res.code(), StatusCode::kNotADirectory);
  // Terminal offender: the full path resolved, so the depth covers it and
  // its stat/data still ride back for cache seeding.
  EXPECT_EQ(res.resolved_depth(), 4u);
  EXPECT_EQ(Vec(res.data()), FileData());
  EXPECT_TRUE(res.entries().empty());
}

TEST_F(CompoundDatabaseTest, ResolveCreateSucceedsAndUpdatesParentStat) {
  BuildChain();
  auto applied = Apply(Op::ResolveCreate("/a/b/c/new", FileData("Fnew"),
                                         CreateMode::kPersistent, kTag,
                                         false));
  const CompoundReply reply = Decoded(applied.reply);
  EXPECT_EQ(reply.code(), applied.result.code);
  EXPECT_EQ(applied.result.code, StatusCode::kOk);
  EXPECT_EQ(reply.created_path(), "/a/b/c/new");
  EXPECT_EQ(reply.resolved_depth(), 4u);
  ASSERT_EQ(reply.prefix().size(), 3u);
  // The parent's stat in the prefix is post-create: both children visible.
  EXPECT_EQ(reply.prefix()[2].stat().num_children, 2);
  EXPECT_GT(reply.stat().czxid, 0);
  // Triggers match a plain create.
  ASSERT_EQ(applied.triggers.size(), 2u);
  EXPECT_EQ(applied.triggers[0].type, WatchEventType::kNodeCreated);
  EXPECT_EQ(applied.triggers[0].path, "/a/b/c/new");
  EXPECT_EQ(applied.triggers[1].type, WatchEventType::kNodeChildrenChanged);
  EXPECT_EQ(applied.triggers[1].path, "/a/b/c");
  EXPECT_TRUE(db_.tree().Exists("/a/b/c/new"));
}

TEST_F(CompoundDatabaseTest, ResolveCreateMissingAncestorFailsWithPrefix) {
  BuildChain();
  auto applied = Apply(Op::ResolveCreate("/a/nope/deep/new", FileData(),
                                         CreateMode::kPersistent, kTag,
                                         false));
  const CompoundReply reply = Decoded(applied.reply);
  EXPECT_EQ(reply.code(), applied.result.code);
  EXPECT_EQ(applied.result.code, StatusCode::kNotFound);
  EXPECT_EQ(reply.resolved_depth(), 1u);
  ASSERT_EQ(reply.prefix().size(), 1u);
  EXPECT_EQ(reply.prefix()[0].name, "a");
  EXPECT_TRUE(applied.triggers.empty());
}

TEST_F(CompoundDatabaseTest, ResolveCreateExistingReturnsCurrentNode) {
  BuildChain();
  auto applied = Apply(Op::ResolveCreate("/a/b/c/f", FileData("Floser"),
                                         CreateMode::kPersistent, kTag,
                                         false));
  const CompoundReply reply = Decoded(applied.reply);
  EXPECT_EQ(reply.code(), applied.result.code);
  EXPECT_EQ(applied.result.code, StatusCode::kAlreadyExists);
  EXPECT_EQ(reply.resolved_depth(), 4u);
  EXPECT_EQ(reply.prefix().size(), 3u);
  // The raced-against node's record rides back — the freshest view the
  // losing client can seed.
  EXPECT_EQ(Vec(reply.data()), FileData());
}

TEST_F(CompoundDatabaseTest, ResolveCreateFileParentIsNotADirectory) {
  BuildChain();
  auto applied = Apply(Op::ResolveCreate("/a/b/c/f/x", FileData(),
                                         CreateMode::kPersistent, kTag,
                                         false));
  const CompoundReply reply = Decoded(applied.reply);
  EXPECT_EQ(reply.code(), applied.result.code);
  EXPECT_EQ(applied.result.code, StatusCode::kNotADirectory);
  EXPECT_EQ(reply.resolved_depth(), 4u);
  EXPECT_FALSE(db_.tree().Exists("/a/b/c/f/x"));
}

TEST_F(CompoundDatabaseTest, ResolveDeleteReturnsPreDeleteRecord) {
  BuildChain();
  auto applied =
      Apply(Op::ResolveDelete("/a/b/c/f", kAnyVersion, kTag, false));
  const CompoundReply reply = Decoded(applied.reply);
  EXPECT_EQ(reply.code(), applied.result.code);
  EXPECT_EQ(applied.result.code, StatusCode::kOk);
  // Depth excludes the deleted terminal; data carries its last record.
  EXPECT_EQ(reply.resolved_depth(), 3u);
  EXPECT_EQ(reply.prefix().size(), 3u);
  EXPECT_EQ(Vec(reply.data()), FileData());
  EXPECT_EQ(reply.prefix()[2].stat().num_children, 0);
  EXPECT_FALSE(db_.tree().Exists("/a/b/c/f"));
  ASSERT_EQ(applied.triggers.size(), 2u);
  EXPECT_EQ(applied.triggers[0].type, WatchEventType::kNodeDeleted);
}

TEST_F(CompoundDatabaseTest, ResolveDeleteVersionMismatchKeepsNode) {
  BuildChain();
  auto applied = Apply(Op::ResolveDelete("/a/b/c/f", 99, kTag, false));
  const CompoundReply reply = Decoded(applied.reply);
  EXPECT_EQ(reply.code(), applied.result.code);
  EXPECT_EQ(applied.result.code, StatusCode::kBadVersion);
  EXPECT_EQ(reply.resolved_depth(), 4u);
  EXPECT_TRUE(db_.tree().Exists("/a/b/c/f"));
}

TEST_F(CompoundDatabaseTest, ResolveDeleteOnDirectoryIsIsADirectory) {
  BuildChain();
  auto applied =
      Apply(Op::ResolveDelete("/a/b/c", kAnyVersion, kTag, false));
  EXPECT_EQ(applied.result.code, StatusCode::kIsADirectory);
  EXPECT_TRUE(db_.tree().Exists("/a/b/c"));
}

TEST_F(CompoundDatabaseTest, CompoundOpsRejectedInsideMulti) {
  BuildChain();
  Txn txn;
  txn.session = 1;
  txn.op.type = OpType::kMulti;
  txn.multi_ops.push_back(Op::ResolveCreate("/a/x", FileData(),
                                            CreateMode::kPersistent, kTag,
                                            false));
  ++zxid_;
  auto applied = db_.Apply(txn, zxid_, zxid_ * 100);
  EXPECT_EQ(applied.result.code, StatusCode::kInvalidArgument);
}

TEST_F(CompoundDatabaseTest, CompoundWritesReplayDeterministically) {
  // Two replicas applying the same txn stream (including failures) must
  // land on identical fingerprints — compound writes ride Apply untouched.
  Database other;
  std::vector<Op> ops;
  ops.push_back(Op::Create("/a", DirData()));
  ops.push_back(Op::ResolveCreate("/a/f", FileData(), CreateMode::kPersistent,
                                  kTag, false));
  ops.push_back(Op::ResolveCreate("/a/f", FileData(), CreateMode::kPersistent,
                                  kTag, false));  // kAlreadyExists
  ops.push_back(Op::ResolveCreate("/a/missing/f", FileData(),
                                  CreateMode::kPersistent, kTag, false));
  ops.push_back(Op::ResolveDelete("/a/f", kAnyVersion, kTag, false));
  ops.push_back(Op::ResolveDelete("/a/f", kAnyVersion, kTag, false));  // gone
  Zxid z = 0;
  for (const auto& op : ops) {
    Txn txn;
    txn.session = 1;
    txn.op = op;
    ++z;
    auto a = db_.Apply(txn, z, z * 100);
    auto b = other.Apply(txn, z, z * 100);
    EXPECT_EQ(a.result.code, b.result.code);
  }
  EXPECT_EQ(db_.Fingerprint(), other.Fingerprint());
}

// ------------------------------------------------- ensemble-level checks --

struct Ensemble {
  sim::Simulation sim;
  net::Network net{sim};
  ZkEnsembleConfig config;
  std::vector<std::unique_ptr<net::RpcEndpoint>> server_eps;
  std::vector<std::unique_ptr<ZkServer>> servers;
  std::vector<std::unique_ptr<net::RpcEndpoint>> client_eps;
  std::vector<std::unique_ptr<ZkClient>> clients;

  explicit Ensemble(std::size_t n_servers, std::size_t n_clients = 1,
                    std::uint64_t seed = 1)
      : sim(seed) {
    for (std::size_t i = 0; i < n_servers; ++i) {
      config.servers.push_back(net.AddNode("zk" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < n_servers; ++i) {
      server_eps.push_back(
          std::make_unique<net::RpcEndpoint>(net, config.servers[i]));
      servers.push_back(std::make_unique<ZkServer>(*server_eps[i], config, i));
      servers[i]->Start();
    }
    for (std::size_t i = 0; i < n_clients; ++i) {
      const auto node = net.AddNode("client" + std::to_string(i));
      client_eps.push_back(std::make_unique<net::RpcEndpoint>(net, node));
      ZkClientConfig cc;
      cc.servers = config.servers;
      cc.attach_index = i;
      clients.push_back(std::make_unique<ZkClient>(*client_eps[i], cc));
    }
  }

  ~Ensemble() { sim.Shutdown(); }

  ZkClient& client(std::size_t i = 0) { return *clients[i]; }

  void Connect() {
    sim::RunTask(sim, [](Ensemble& e) -> sim::Task<void> {
      for (auto& c : e.clients) {
        auto st = co_await c->Connect();
        EXPECT_TRUE(st.ok()) << st;
      }
    }(*this));
  }

  void Drain(sim::Duration d = sim::Ms(50)) { sim.Run(sim.now() + d); }

  bool Converged() {
    std::uint64_t fp = 0;
    bool first = true;
    for (auto& s : servers) {
      if (first) {
        fp = s->db().Fingerprint();
        first = false;
      } else if (s->db().Fingerprint() != fp) {
        return false;
      }
    }
    return true;
  }
};

sim::Task<void> BuildChain(ZkClient& c) {  // dufs-lint: allow(coro-ref-param)
  CO_ASSERT_OK((co_await c.Create("/a", DirData())).status());
  CO_ASSERT_OK((co_await c.Create("/a/b", DirData())).status());
  CO_ASSERT_OK((co_await c.Create("/a/b/c", DirData())).status());
  CO_ASSERT_OK((co_await c.Create("/a/b/c/f", FileData())).status());
}

TEST(CompoundEnsembleTest, ResolveCostsOneRequest) {
  Ensemble e(3);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    co_await BuildChain(en.client());
    const auto before = en.client().requests_sent();
    auto res = co_await en.client().Resolve("/a/b/c/f", false, kTag);
    CO_ASSERT_OK(res.status());
    CO_ASSERT_TRUE(res->code() == StatusCode::kOk);
    CO_ASSERT_TRUE(res->resolved_depth() == 4u);
    CO_ASSERT_TRUE(res->prefix().size() == 3u);
    CO_ASSERT_TRUE(en.client().requests_sent() - before == 1u);
  }(e));
}

TEST(CompoundEnsembleTest, CompoundWritesReplicateToAllServers) {
  Ensemble e(3);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    co_await BuildChain(en.client());
    auto created = co_await en.client().ResolveCreate(
        "/a/b/c/g", FileData("Fg"), CreateMode::kPersistent, kTag, false);
    CO_ASSERT_OK(created.status());
    CO_ASSERT_TRUE(created->code() == StatusCode::kOk);
    auto deleted =
        co_await en.client().ResolveDelete("/a/b/c/f", kAnyVersion, kTag,
                                           false);
    CO_ASSERT_OK(deleted.status());
    CO_ASSERT_TRUE(deleted->code() == StatusCode::kOk);
  }(e));
  e.Drain();
  EXPECT_TRUE(e.Converged());
  for (auto& s : e.servers) {
    EXPECT_TRUE(s->db().tree().Exists("/a/b/c/g"));
    EXPECT_FALSE(s->db().tree().Exists("/a/b/c/f"));
  }
}

TEST(CompoundEnsembleTest, ConcurrentDeleteUnderResolve) {
  // A resolve racing a delete of its terminal must return one of the two
  // serialized outcomes (full hit or partial miss at the parent), never a
  // torn prefix — and the ensemble must stay convergent.
  Ensemble e(3, /*n_clients=*/2);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    // The resolver builds the chain so its session server has applied it.
    co_await BuildChain(en.client(0));
    auto resolver = [](Ensemble& es) -> sim::Task<Result<CompoundReply>> {
      co_return co_await es.client(0).Resolve("/a/b/c/f", false, kTag);
    };
    auto deleter = [](Ensemble& es) -> sim::Task<Result<CompoundReply>> {
      co_return co_await es.client(1).ResolveDelete("/a/b/c/f", kAnyVersion,
                                                    kTag, false);
    };
    std::vector<sim::Task<Result<CompoundReply>>> tasks;
    tasks.push_back(resolver(en));
    tasks.push_back(deleter(en));
    auto results = co_await sim::WhenAll(std::move(tasks));
    CO_ASSERT_OK(results[0].status());
    CO_ASSERT_OK(results[1].status());
    CO_ASSERT_TRUE(results[1]->code() == StatusCode::kOk);  // delete wins once
    if (results[0]->code() == StatusCode::kOk) {
      CO_ASSERT_TRUE(results[0]->resolved_depth() == 4u);
    } else {
      CO_ASSERT_TRUE(results[0]->code() == StatusCode::kNotFound);
      CO_ASSERT_TRUE(results[0]->resolved_depth() == 3u);
      CO_ASSERT_TRUE(results[0]->prefix().size() == 3u);
    }
  }(e));
  e.Drain();
  EXPECT_TRUE(e.Converged());
}

TEST(CompoundEnsembleTest, ResolveWatchFiresOnPrefixComponent) {
  Ensemble e(3, /*n_clients=*/2);
  e.Connect();
  std::vector<WatchEvent> events;
  e.client(0).SetWatchHandler(
      [&events](const WatchEvent& ev) { events.push_back(ev); });
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    co_await BuildChain(en.client(0));
    // Client 0 resolves with per-component watches, then client 1 mutates
    // an *interior* component's data — the watch must fire even though the
    // resolve targeted the terminal.
    auto res = co_await en.client(0).Resolve("/a/b/c/f", /*watch=*/true, kTag);
    CO_ASSERT_OK(res.status());
    CO_ASSERT_TRUE(res->code() == StatusCode::kOk);
    auto set = co_await en.client(1).Set("/a/b", DirData());
    CO_ASSERT_OK(set.status());
  }(e));
  e.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].path, "/a/b");
  EXPECT_EQ(events[0].type, WatchEventType::kNodeDataChanged);
}

TEST(CompoundEnsembleTest, PartialMissWatchFiresOnCreation) {
  Ensemble e(3, /*n_clients=*/2);
  e.Connect();
  std::vector<WatchEvent> events;
  e.client(0).SetWatchHandler(
      [&events](const WatchEvent& ev) { events.push_back(ev); });
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    co_await BuildChain(en.client(0));
    // Partial miss registers a creation watch on the first missing
    // component — the server-side mirror of the client's negative entry.
    auto res = co_await en.client(0).Resolve("/a/b/missing", /*watch=*/true,
                                             kTag);
    CO_ASSERT_OK(res.status());
    CO_ASSERT_TRUE(res->code() == StatusCode::kNotFound);
    CO_ASSERT_TRUE(res->resolved_depth() == 2u);
    auto created = co_await en.client(1).Create("/a/b/missing", FileData());
    CO_ASSERT_OK(created.status());
  }(e));
  e.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].path, "/a/b/missing");
  EXPECT_EQ(events[0].type, WatchEventType::kNodeCreated);
}

TEST(CompoundEnsembleTest, ReadDirPlusRegistersChildWatches) {
  Ensemble e(3, /*n_clients=*/2);
  e.Connect();
  std::vector<WatchEvent> events;
  e.client(0).SetWatchHandler(
      [&events](const WatchEvent& ev) { events.push_back(ev); });
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    co_await BuildChain(en.client(0));
    auto res = co_await en.client(0).ReadDirPlus("/a/b/c", /*watch=*/true,
                                                 kTag);
    CO_ASSERT_OK(res.status());
    CO_ASSERT_TRUE(res->code() == StatusCode::kOk);
    CO_ASSERT_TRUE(res->entries().size() == 1u);
    // Mutating a listed entry fires its per-entry data watch.
    auto set = co_await en.client(1).Set("/a/b/c/f", FileData("Fv2"));
    CO_ASSERT_OK(set.status());
  }(e));
  e.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].path, "/a/b/c/f");
}

}  // namespace
}  // namespace dufs::zk
