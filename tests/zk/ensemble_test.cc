// Integration tests: full replicated ensemble over the simulated cluster.
#include <gtest/gtest.h>

#include "testutil/co_assert.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "net/rpc.h"
#include "sim/task.h"
#include "zk/client.h"
#include "zk/server.h"

namespace dufs::zk {
namespace {

std::vector<std::uint8_t> Bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

struct Ensemble {
  sim::Simulation sim;
  net::Network net{sim};
  ZkEnsembleConfig config;
  std::vector<std::unique_ptr<net::RpcEndpoint>> server_eps;
  std::vector<std::unique_ptr<ZkServer>> servers;
  std::vector<std::unique_ptr<net::RpcEndpoint>> client_eps;
  std::vector<std::unique_ptr<ZkClient>> clients;

  explicit Ensemble(std::size_t n_servers, std::size_t n_clients = 1,
                    bool failure_detection = false, std::uint64_t seed = 1,
                    bool group_commit = false,
                    std::size_t max_log_entries =
                        ZkEnsembleConfig{}.max_log_entries)
      : sim(seed) {
    config.enable_failure_detection = failure_detection;
    config.group_commit = group_commit;
    config.max_log_entries = max_log_entries;
    for (std::size_t i = 0; i < n_servers; ++i) {
      config.servers.push_back(net.AddNode("zk" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < n_servers; ++i) {
      server_eps.push_back(
          std::make_unique<net::RpcEndpoint>(net, config.servers[i]));
      servers.push_back(
          std::make_unique<ZkServer>(*server_eps[i], config, i));
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

  net::Node& node(std::size_t i) { return net.node(config.servers[i]); }

  // Crash-restart of server i from `snapshot` (the journal-replay model).
  void Restart(std::size_t i, const std::vector<std::uint8_t>& snapshot) {
    node(i).Restart();
    ASSERT_TRUE(servers[i]->RestoreSnapshot(snapshot).ok());
    servers[i]->OnRestart();
  }

  ZkClient& client(std::size_t i = 0) { return *clients[i]; }

  void Connect() {
    sim::RunTask(sim, [](Ensemble& e) -> sim::Task<void> {
      for (auto& c : e.clients) {
        auto st = co_await c->Connect();
        EXPECT_TRUE(st.ok()) << st;
      }
    }(*this));
  }

  // Lets in-flight replication traffic (commits to followers) finish.
  void Drain(sim::Duration d = sim::Ms(50)) { sim.Run(sim.now() + d); }

  bool Converged() {
    std::uint64_t fp = 0;
    bool first = true;
    for (auto& s : servers) {
      if (!net.node(s->node_id()).up()) continue;
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

TEST(EnsembleTest, ConnectCreatesReplicatedSession) {
  Ensemble e(3);
  e.Connect();
  e.Drain();
  for (auto& s : e.servers) {
    EXPECT_TRUE(s->db().SessionExists(e.client().session()));
  }
}

TEST(EnsembleTest, CreateGetRoundTrip) {
  Ensemble e(3);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    auto created = co_await en.client().Create("/hello", Bytes("world"));
    CO_ASSERT_TRUE(created.ok());
    EXPECT_EQ(*created, "/hello");
    auto got = co_await en.client().Get("/hello");
    CO_ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->data, Bytes("world"));
    EXPECT_EQ(got->stat.version, 0);
  }(e));
}

TEST(EnsembleTest, AllReplicasConverge) {
  Ensemble e(5);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      auto r = co_await en.client().Create("/n" + std::to_string(i),
                                           Bytes("data"));
      CO_ASSERT_TRUE(r.ok());
    }
    (void)co_await en.client().Set("/n0", Bytes("updated"));
    (void)co_await en.client().Delete("/n1");
  }(e));
  e.Drain();
  EXPECT_TRUE(e.Converged());
  for (auto& s : e.servers) {
    EXPECT_EQ(s->db().tree().node_count(), 20u);  // root + 20 - 1 deleted
  }
}

TEST(EnsembleTest, WritesThroughFollowerWork) {
  Ensemble e(3, /*n_clients=*/3);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    // Client 1 and 2 attach to followers (attach_index 1, 2).
    auto r = co_await en.client(1).Create("/via-follower", Bytes("x"));
    CO_ASSERT_TRUE(r.ok());
    // Read-your-write through the same session server.
    auto got = co_await en.client(1).Get("/via-follower");
    EXPECT_TRUE(got.ok());
    // Another client, another server: visible after the commit fans out.
    auto got2 = co_await en.client(2).Get("/via-follower");
    EXPECT_TRUE(got2.ok());
  }(e));
}

TEST(EnsembleTest, SequentialCreateIsGloballyOrdered) {
  Ensemble e(3, 3);
  e.Connect();
  std::vector<std::string> paths;
  sim::RunTask(e.sim, [](Ensemble& en,
                         std::vector<std::string>& out) -> sim::Task<void> {
    auto base = co_await en.client(0).Create("/ctr", {});
    CO_ASSERT_TRUE(base.ok());
    for (int i = 0; i < 9; ++i) {
      auto r = co_await en.client(static_cast<std::size_t>(i % 3))
                   .Create("/ctr/c-", {}, CreateMode::kPersistentSequential);
      CO_ASSERT_TRUE(r.ok());
      out.push_back(*r);
    }
  }(e, paths));
  // All 9 names distinct and dense 0..8.
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  ASSERT_EQ(paths.size(), 9u);
  EXPECT_EQ(paths.front(), "/ctr/c-0000000000");
  EXPECT_EQ(paths.back(), "/ctr/c-0000000008");
}

TEST(EnsembleTest, VersionConflictSurfaces) {
  Ensemble e(3);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client().Create("/v", Bytes("a"));
    auto s1 = co_await en.client().Set("/v", Bytes("b"), 0);
    CO_ASSERT_TRUE(s1.ok());
    auto s2 = co_await en.client().Set("/v", Bytes("c"), 0);
    EXPECT_EQ(s2.code(), StatusCode::kBadVersion);
  }(e));
}

TEST(EnsembleTest, MultiIsAtomicAcrossReplicas) {
  Ensemble e(3);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client().Create("/src", Bytes("f"));
    std::vector<Op> rename;
    rename.push_back(Op::Create("/dst", Bytes("f")));
    rename.push_back(Op::Delete("/src"));
    auto r = co_await en.client().Multi(std::move(rename));
    CO_ASSERT_TRUE(r.ok());

    std::vector<Op> failing;
    failing.push_back(Op::Create("/x", {}));
    failing.push_back(Op::Delete("/ghost"));
    auto r2 = co_await en.client().Multi(std::move(failing));
    EXPECT_FALSE(r2.ok());
    auto x = co_await en.client().Exists("/x");
    EXPECT_EQ(x.code(), StatusCode::kNotFound);
  }(e));
  e.Drain();
  EXPECT_TRUE(e.Converged());
}

TEST(EnsembleTest, WatchFiresOnDataChange) {
  Ensemble e(3, 2);
  e.Connect();
  std::vector<WatchEvent> events;
  e.client(0).SetWatchHandler(
      [&](const WatchEvent& ev) { events.push_back(ev); });
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client(0).Create("/w", Bytes("0"));
    auto got = co_await en.client(0).Get("/w", /*watch=*/true);
    CO_ASSERT_TRUE(got.ok());
    (void)co_await en.client(1).Set("/w", Bytes("1"));
  }(e));
  e.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, WatchEventType::kNodeDataChanged);
  EXPECT_EQ(events[0].path, "/w");
}

TEST(EnsembleTest, WatchIsOneShot) {
  Ensemble e(3, 2);
  e.Connect();
  int fired = 0;
  e.client(0).SetWatchHandler([&](const WatchEvent&) { ++fired; });
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client(0).Create("/w", Bytes("0"));
    (void)co_await en.client(0).Get("/w", /*watch=*/true);
    (void)co_await en.client(1).Set("/w", Bytes("1"));
    (void)co_await en.client(1).Set("/w", Bytes("2"));
  }(e));
  e.Drain();
  EXPECT_EQ(fired, 1);
}

TEST(EnsembleTest, OneTriggerNotifiesEachWatcherOnceInOrder) {
  Ensemble e(3, 2);
  // Three sessions per client node, all attached to server 0, so one
  // server holds every watch on /w.
  std::vector<std::unique_ptr<ZkClient>> watchers;
  for (int i = 0; i < 3; ++i) {
    for (std::size_t node = 0; node < 2; ++node) {
      ZkClientConfig cc;
      cc.servers = e.config.servers;
      cc.attach_index = 0;
      watchers.push_back(std::make_unique<ZkClient>(*e.client_eps[node], cc));
    }
  }
  std::vector<std::pair<SessionId, net::NodeId>> notified;
  for (std::size_t node = 0; node < 2; ++node) {
    // One watch sink per node; it sees the events of every session there.
    const net::NodeId id = e.client_eps[node]->self();
    watchers[node]->SetWatchHandler([&notified, id](const WatchEvent& ev) {
      EXPECT_EQ(ev.path, "/w");
      notified.emplace_back(ev.session, id);
    });
  }
  sim::RunTask(e.sim, [](Ensemble& en,
                         std::vector<std::unique_ptr<ZkClient>>& ws)
                          -> sim::Task<void> {
    CO_ASSERT_OK(co_await en.client(0).Connect());
    CO_ASSERT_TRUE((co_await en.client(0).Create("/w", Bytes("0"))).ok());
    for (auto& w : ws) CO_ASSERT_OK(co_await w->Connect());
    // Register newest session first, and every session twice (a data
    // watch via Get and again via Exists): the table must still notify
    // each (session, client) once, in ascending order.
    for (auto it = ws.rbegin(); it != ws.rend(); ++it) {
      CO_ASSERT_TRUE((co_await (*it)->Get("/w", /*watch=*/true)).ok());
      CO_ASSERT_TRUE((co_await (*it)->Exists("/w", /*watch=*/true)).ok());
    }
    CO_ASSERT_TRUE((co_await en.client(0).Set("/w", Bytes("1"))).ok());
  }(e, watchers));
  e.Drain();
  std::vector<std::pair<SessionId, net::NodeId>> expected;
  for (std::size_t k = 0; k < watchers.size(); ++k) {
    expected.emplace_back(watchers[k]->session(),
                          e.client_eps[k % 2]->self());
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(notified, expected);
}

TEST(EnsembleTest, ChildWatchFiresOnCreate) {
  Ensemble e(3, 2);
  e.Connect();
  std::vector<WatchEvent> events;
  e.client(0).SetWatchHandler(
      [&](const WatchEvent& ev) { events.push_back(ev); });
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client(0).Create("/dir", {});
    (void)co_await en.client(0).GetChildren("/dir", /*watch=*/true);
    (void)co_await en.client(1).Create("/dir/kid", {});
  }(e));
  e.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, WatchEventType::kNodeChildrenChanged);
  EXPECT_EQ(events[0].path, "/dir");
}

TEST(EnsembleTest, EphemeralsVanishOnSessionClose) {
  Ensemble e(3, 2);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client(0).Create("/locks", {});
    auto r = co_await en.client(1).Create("/locks/owner", Bytes("me"),
                                          CreateMode::kEphemeral);
    CO_ASSERT_TRUE(r.ok());
    auto closed = co_await en.client(1).Close();
    EXPECT_TRUE(closed.ok());
    auto exists = co_await en.client(0).Exists("/locks/owner");
    EXPECT_EQ(exists.code(), StatusCode::kNotFound);
  }(e));
}

TEST(EnsembleTest, SingleServerEnsembleWorks) {
  Ensemble e(1);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    auto r = co_await en.client().Create("/solo", Bytes("x"));
    CO_ASSERT_TRUE(r.ok());
    auto got = co_await en.client().Get("/solo");
    EXPECT_TRUE(got.ok());
  }(e));
}

TEST(EnsembleTest, FollowerCrashQuorumSurvives) {
  Ensemble e(3);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client().Create("/before", {});
    en.net.node(en.config.servers[2]).Crash();  // a follower
    auto r = co_await en.client().Create("/after", {});
    EXPECT_TRUE(r.ok()) << r.status();  // quorum 2/3 still alive
  }(e));
}

TEST(EnsembleTest, MajorityLossBlocksWrites) {
  Ensemble e(3);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    en.net.node(en.config.servers[1]).Crash();
    en.net.node(en.config.servers[2]).Crash();
    auto r = co_await en.client().Create("/nope", {});
    EXPECT_FALSE(r.ok());  // no quorum: kUnavailable/kTimeout after retries
    // Reads from the surviving replica still work (stale-tolerant reads).
    auto stat = co_await en.client().Exists("/");
    EXPECT_TRUE(stat.ok());
  }(e));
}

TEST(EnsembleTest, LeaderCrashElectionRecovers) {
  Ensemble e(3, 1, /*failure_detection=*/true);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client().Create("/pre", Bytes("1"));
    en.net.node(en.config.servers[0]).Crash();  // the leader
    // Allow detection + election, then write again (client fails over).
    co_await en.sim.Delay(sim::Sec(1));
    auto r = co_await en.client().Create("/post", Bytes("2"));
    EXPECT_TRUE(r.ok()) << r.status();
  }(e));
  // Exactly one of the survivors leads.
  int leaders = 0;
  for (std::size_t i = 1; i < 3; ++i) {
    if (e.servers[i]->is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  e.Drain(sim::Sec(1));
  EXPECT_TRUE(e.Converged());
}

TEST(EnsembleTest, CrashedFollowerRejoinsAndSyncs) {
  Ensemble e(3, 1, /*failure_detection=*/true);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client().Create("/a", {});
    auto& node = en.net.node(en.config.servers[2]);
    auto snapshot = en.servers[2]->TakeSnapshot();
    node.Crash();
    (void)co_await en.client().Create("/b", {});
    (void)co_await en.client().Create("/c", {});
    node.Restart();
    CO_ASSERT_TRUE(en.servers[2]->RestoreSnapshot(snapshot).ok());
    en.servers[2]->OnRestart();
    co_await en.sim.Delay(sim::Sec(2));
  }(e));
  EXPECT_TRUE(e.Converged());
  EXPECT_TRUE(e.servers[2]->db().tree().Exists("/b"));
  EXPECT_TRUE(e.servers[2]->db().tree().Exists("/c"));
}

// The Fig. 1 consistency race, resolved at the coordination layer: two
// clients race mkdir(d1) and rename(d1->d2); whatever the interleaving, all
// replicas agree on a single outcome.
TEST(EnsembleTest, Figure1RaceIsLinearized) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Ensemble e(3, 2, false, seed);
    e.Connect();
    sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
      (void)co_await en.client(0).Create("/d1", {});
      co_return;
    }(e));
    // Race: client0 re-creates /d1 while client1 renames /d1 -> /d2.
    bool done0 = false, done1 = false;
    {
      sim::CurrentSimulationScope scope(&e.sim);
      e.sim.Spawn([](Ensemble& en, bool& done) -> sim::Task<void> {
        std::vector<Op> mv;
        mv.push_back(Op::Create("/d2", {}));
        mv.push_back(Op::Delete("/d1"));
        (void)co_await en.client(1).Multi(std::move(mv));
        done = true;
      }(e, done1));
      e.sim.Spawn([](Ensemble& en, bool& done) -> sim::Task<void> {
        (void)co_await en.client(0).Create("/d1", {});
        done = true;
      }(e, done0));
    }
    e.sim.Run();
    EXPECT_TRUE(done0 && done1);
    EXPECT_TRUE(e.Converged()) << "seed " << seed;
    // /d2 must exist; /d1 exists iff the re-create happened after the move
    // — but *every* replica agrees.
    const auto& tree = e.servers[0]->db().tree();
    EXPECT_TRUE(tree.Exists("/d2"));
  }
}

// Many concurrent processes per client node, as in mdtest: a sequential
// client is RTT-bound and would hide server-side effects.
double MeasureRate(Ensemble& e, int procs_per_client, int ops_per_proc,
                   bool reads) {
  if (reads) {
    sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
      (void)co_await en.client(0).Create("/hot", Bytes("x"));
    }(e));
  }
  const auto start = e.sim.now();
  const std::size_t n_clients = e.clients.size();
  sim::RunTask(e.sim, [](Ensemble& en, std::size_t nc, int procs, int ops,
                         bool rd) -> sim::Task<void> {
    sim::Barrier done(en.sim, nc * static_cast<std::size_t>(procs) + 1);
    for (std::size_t c = 0; c < nc; ++c) {
      for (int p = 0; p < procs; ++p) {
        en.sim.Spawn([](Ensemble& e2, std::size_t idx, int pid, int n,
                        bool rd2, sim::Barrier b) -> sim::Task<void> {
          for (int i = 0; i < n; ++i) {
            if (rd2) {
              (void)co_await e2.client(idx).Get("/hot");
            } else {
              (void)co_await e2.client(idx).Create(
                  "/c" + std::to_string(idx) + "-" + std::to_string(pid) +
                      "-" + std::to_string(i),
                  {});
            }
          }
          co_await b.Arrive();
        }(en, c, p, ops, rd, done));
      }
    }
    co_await done.Arrive();
  }(e, n_clients, procs_per_client, ops_per_proc, reads));
  const double secs = static_cast<double>(e.sim.now() - start) / sim::kSecond;
  return static_cast<double>(n_clients) * procs_per_client * ops_per_proc /
         secs;
}

TEST(EnsembleTest, ReadThroughputScalesWithServers) {
  // Mini Fig. 7d: aggregate read rate with 4 servers exceeds 1 server.
  auto measure = [](std::size_t n_servers) {
    Ensemble e(n_servers, 4);
    e.Connect();
    return MeasureRate(e, /*procs_per_client=*/16, /*ops_per_proc=*/50,
                       /*reads=*/true);
  };
  const double rate1 = measure(1);
  const double rate4 = measure(4);
  EXPECT_GT(rate4, rate1 * 2.0);
}

TEST(EnsembleTest, WriteThroughputFallsWithServers) {
  // Mini Fig. 7a: create rate with 8 servers is below 1 server.
  auto measure = [](std::size_t n_servers) {
    Ensemble e(n_servers, 4);
    e.Connect();
    return MeasureRate(e, /*procs_per_client=*/16, /*ops_per_proc=*/25,
                       /*reads=*/false);
  };
  const double rate1 = measure(1);
  const double rate8 = measure(8);
  EXPECT_GT(rate1, rate8 * 1.5);
}

// ---------------------------------------------------------- group commit ----

TEST(EnsembleTest, GroupCommitConvergesAndCommitsAll) {
  Ensemble e(3, 4, /*failure_detection=*/false, /*seed=*/1,
             /*group_commit=*/true);
  e.Connect();
  (void)MeasureRate(e, /*procs_per_client=*/8, /*ops_per_proc=*/10,
                    /*reads=*/false);
  e.Drain(sim::Sec(1));
  EXPECT_TRUE(e.Converged());
  // Every concurrent create landed exactly once on every replica.
  for (std::size_t c = 0; c < 4; ++c) {
    for (int p = 0; p < 8; ++p) {
      for (int i = 0; i < 10; ++i) {
        const std::string path = "/c" + std::to_string(c) + "-" +
                                 std::to_string(p) + "-" + std::to_string(i);
        EXPECT_TRUE(e.servers[2]->db().tree().Exists(path)) << path;
      }
    }
  }
}

TEST(EnsembleTest, GroupCommitImprovesConcurrentWriteRate) {
  // The acceptance check: with many concurrent writers, batching the
  // per-follower replication work and the quorum round lifts create
  // throughput well above the one-proposal-per-op pipeline.
  auto measure = [](bool group_commit) {
    Ensemble e(3, 4, /*failure_detection=*/false, /*seed=*/1, group_commit);
    e.Connect();
    return MeasureRate(e, /*procs_per_client=*/32, /*ops_per_proc=*/25,
                       /*reads=*/false);
  };
  const double rate_off = measure(false);
  const double rate_on = measure(true);
  EXPECT_GT(rate_on, rate_off * 1.3);
}

TEST(EnsembleTest, GroupCommitWritesThroughFollowerWork) {
  Ensemble e(3, 2, /*failure_detection=*/false, /*seed=*/1,
             /*group_commit=*/true);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    // Client 1 is attached to follower 1; its writes are forwarded to the
    // leader and enter the same batch queue.
    auto r = co_await en.client(1).Create("/via-follower", Bytes("x"));
    CO_ASSERT_TRUE(r.ok());
    auto got = co_await en.client(1).Get("/via-follower");
    CO_ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->data, Bytes("x"));
  }(e));
  e.Drain();
  EXPECT_TRUE(e.Converged());
}

TEST(EnsembleTest, GroupCommitLeaderCrashElectionRecovers) {
  Ensemble e(3, 1, /*failure_detection=*/true, /*seed=*/1,
             /*group_commit=*/true);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    (void)co_await en.client().Create("/pre", Bytes("1"));
    en.net.node(en.config.servers[0]).Crash();  // the leader
    co_await en.sim.Delay(sim::Sec(1));
    auto r = co_await en.client().Create("/post", Bytes("2"));
    EXPECT_TRUE(r.ok()) << r.status();
  }(e));
  int leaders = 0;
  for (std::size_t i = 1; i < 3; ++i) {
    if (e.servers[i]->is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  e.Drain(sim::Sec(1));
  EXPECT_TRUE(e.Converged());
}

// A replica that caught up by SNAP must not serve a later DIFF from the log
// it kept from before the snapshot: the log has to restart at the installed
// state, or the diff skips everything the snapshot carried.
TEST(EnsembleTest, SnapshotCaughtUpReplicaServesCompleteDiff) {
  Ensemble e(3, 1, /*failure_detection=*/true, /*seed=*/1,
             /*group_commit=*/false, /*max_log_entries=*/2);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    CO_ASSERT_TRUE((co_await en.client().Create("/a", {})).ok());
    const auto snap2 = en.servers[2]->TakeSnapshot();
    en.node(2).Crash();
    CO_ASSERT_TRUE((co_await en.client().Create("/b", {})).ok());
    const auto snap1 = en.servers[1]->TakeSnapshot();
    for (const char* path : {"/c", "/d", "/e"}) {
      CO_ASSERT_TRUE((co_await en.client().Create(path, {})).ok());
    }
    en.Restart(2, snap2);  // more than 2 entries behind: a SNAP
    co_await en.sim.Delay(sim::Sec(2));
    EXPECT_EQ(en.servers[2]->snapshot_syncs(), 1u);
    en.node(1).Crash();
    en.node(0).Crash();
    // zk2 has the highest zxid and is elected; zk1 asks it for /c.. /e.
    en.Restart(1, snap1);
    co_await en.sim.Delay(sim::Sec(2));
  }(e));
  EXPECT_TRUE(e.servers[2]->is_leader());
  EXPECT_TRUE(e.Converged());
  EXPECT_TRUE(e.servers[1]->db().tree().Exists("/e"));
}

// A restarted follower keeps its epoch and adopts the sitting leader's; a
// self-promoted epoch would make it reject that leader's proposals, and with
// one more follower down the ensemble would lose its write quorum.
TEST(EnsembleTest, RestartedFollowerFollowsSittingLeaderEpoch) {
  Ensemble e(3, 1, /*failure_detection=*/true);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    CO_ASSERT_TRUE((co_await en.client().Create("/a", {})).ok());
    const auto snap2 = en.servers[2]->TakeSnapshot();
    en.node(2).Crash();
    CO_ASSERT_TRUE((co_await en.client().Create("/b", {})).ok());
    en.Restart(2, snap2);
    co_await en.sim.Delay(sim::Sec(2));
    EXPECT_TRUE(en.servers[2]->db().tree().Exists("/b"));
    EXPECT_EQ(en.servers[2]->epoch(), en.servers[0]->epoch());
    en.node(1).Crash();  // zk0 + zk2 are still a quorum of 3
    auto r = co_await en.client().Create("/c", {});
    EXPECT_TRUE(r.ok()) << r.status();
  }(e));
  EXPECT_TRUE(e.servers[0]->is_leader());
  e.Drain();
  EXPECT_TRUE(e.Converged());
  EXPECT_TRUE(e.servers[2]->db().tree().Exists("/c"));
}

// A new leader's epoch must exceed every epoch its electors hold, not just
// its own. Here zk4 restarts at an older epoch than zk1, which journaled an
// uncommitted proposal of the epoch after it; were zk4 to lead that epoch
// again, zk1 would commit its journaled txn under the reused zxid while the
// others commit zk4's.
TEST(EnsembleTest, NewLeaderEpochExceedsItsElectorsEpochs) {
  Ensemble e(5, 1, /*failure_detection=*/true);
  e.Connect();
  // A writer attached to zk3 that gives up instead of failing over, so its
  // write lives only in zk1's journal.
  net::RpcEndpoint writer_ep(e.net, e.net.AddNode("writer"));
  ZkClientConfig wc;
  wc.servers = e.config.servers;
  wc.attach_index = 3;
  wc.max_retries = 0;
  wc.request_timeout = sim::Ms(200);
  ZkClient writer(writer_ep, wc);
  sim::RunTask(e.sim, [](Ensemble& en, ZkClient& w) -> sim::Task<void> {
    CO_ASSERT_TRUE((co_await w.Connect()).ok());
    CO_ASSERT_TRUE((co_await en.client().Create("/a", {})).ok());
    co_await en.sim.Delay(sim::Ms(50));
    const std::int64_t old_epoch = en.servers[4]->epoch();
    const auto snap4 = en.servers[4]->TakeSnapshot();
    en.node(4).Crash();
    en.node(0).Crash();
    co_await en.sim.Delay(sim::Sec(2));
    // zk1, zk2 and zk3 tie on zxid; the highest index leads.
    CO_ASSERT_TRUE(en.servers[3]->is_leader());
    CO_ASSERT_EQ(en.servers[3]->epoch(), old_epoch + 1);
    // Only zk1 journals /t; zk3 dies before it reaches a quorum.
    en.net.Partition(en.config.servers[3], en.config.servers[2]);
    en.sim.Spawn([](ZkClient& c) -> sim::Task<void> {
      (void)co_await c.Create("/t", {});
    }(w));
    co_await en.sim.Delay(sim::Ms(30));
    en.node(3).Crash();
    en.net.HealAll();
    en.Restart(4, snap4);
    EXPECT_EQ(en.servers[4]->epoch(), old_epoch);
    co_await en.sim.Delay(sim::Sec(2));
    // zk1, zk2 and zk4 tie on zxid again; zk4 leads above zk1's epoch.
    CO_ASSERT_TRUE(en.servers[4]->is_leader());
    EXPECT_EQ(en.servers[4]->epoch(), old_epoch + 2);
    auto r = co_await en.client().Create("/u", {});
    EXPECT_TRUE(r.ok()) << r.status();
  }(e, writer));
  e.Drain();
  EXPECT_TRUE(e.Converged());
  for (std::size_t i : {1, 2, 4}) {
    EXPECT_TRUE(e.servers[i]->db().tree().Exists("/u")) << "zk" << i;
    EXPECT_FALSE(e.servers[i]->db().tree().Exists("/t")) << "zk" << i;
  }
}

// With a 4-entry log, a follower 2 writes behind catches up by DIFF and one
// 8 writes behind by SNAP; both end on the leader's state.
TEST(EnsembleTest, LaggingFollowersCatchUpByDiffOrSnapshot) {
  Ensemble e(5, 1, /*failure_detection=*/true, /*seed=*/1,
             /*group_commit=*/false, /*max_log_entries=*/4);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    const auto snap3 = en.servers[3]->TakeSnapshot();
    en.node(3).Crash();
    for (int i = 0; i < 6; ++i) {
      CO_ASSERT_TRUE(
          (co_await en.client().Create("/x" + std::to_string(i), {})).ok());
    }
    co_await en.sim.Delay(sim::Ms(50));  // zk4 applies the last commit
    const auto snap4 = en.servers[4]->TakeSnapshot();
    en.node(4).Crash();
    for (int i = 0; i < 2; ++i) {
      CO_ASSERT_TRUE(
          (co_await en.client().Create("/y" + std::to_string(i), {})).ok());
    }
    en.Restart(4, snap4);
    en.Restart(3, snap3);
    co_await en.sim.Delay(sim::Sec(2));
  }(e));
  EXPECT_TRUE(e.Converged());
  EXPECT_TRUE(e.servers[3]->db().tree().Exists("/y1"));
  EXPECT_TRUE(e.servers[4]->db().tree().Exists("/y1"));
  EXPECT_EQ(e.servers[4]->snapshot_syncs(), 0u);
  EXPECT_GE(e.servers[4]->diff_syncs(), 1u);
  // zk4's log holds what the diff carried: the creates of /y0 and /y1.
  wire::BufferWriter diff;
  e.servers[4]->committed_log().WriteDiff(0, diff);
  wire::BufferReader r(diff.data());
  auto count = r.ReadVarint();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  Zxid prev = 0;
  for (const char* path : {"/y0", "/y1"}) {
    auto zxid = r.ReadI64();
    ASSERT_TRUE(zxid.ok());
    EXPECT_GT(*zxid, prev);
    prev = *zxid;
    auto txn = Txn::Decode(r);
    ASSERT_TRUE(txn.ok());
    EXPECT_EQ(txn->op.type, OpType::kCreate);
    EXPECT_EQ(txn->op.path, path);
  }
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(e.servers[3]->snapshot_syncs(), 1u);
  // The leader's log holds the last 4 commits; the 5th-newest is truncated.
  EXPECT_EQ(e.servers[0]->committed_log().size(), 4u);
}

// Restarting from a snapshot and installing a leader's snapshot both leave
// an empty log whose truncation point is the state the replica now holds.
TEST(EnsembleTest, RestartAndSnapshotInstallResetTheLog) {
  Ensemble e(3, 1, /*failure_detection=*/true, /*seed=*/1,
             /*group_commit=*/false, /*max_log_entries=*/2);
  e.Connect();
  sim::RunTask(e.sim, [](Ensemble& en) -> sim::Task<void> {
    const auto snap2 = en.servers[2]->TakeSnapshot();
    en.node(2).Crash();
    for (const char* path : {"/a", "/b", "/c", "/d"}) {
      CO_ASSERT_TRUE((co_await en.client().Create(path, {})).ok());
    }
    en.Restart(2, snap2);
    const auto& log = en.servers[2]->committed_log();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.truncated_upto(), en.servers[2]->db().last_applied());
    EXPECT_LT(log.truncated_upto(), en.servers[0]->db().last_applied());
    co_await en.sim.Delay(sim::Sec(2));
    EXPECT_EQ(en.servers[2]->snapshot_syncs(), 1u);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.truncated_upto(), en.servers[0]->db().last_applied());
    EXPECT_EQ(log.truncated_upto(), en.servers[2]->db().last_applied());
  }(e));
}

Txn MakeTxn(SessionId session, std::int64_t time, Op op) {
  Txn txn;
  txn.session = session;
  txn.time = time;
  txn.trace = static_cast<std::uint64_t>(time) * 1000;
  txn.op = std::move(op);
  return txn;
}

// Pins the stored-bytes DIFF to the encoding a decoded-Txn log produced:
// WriteI64(zxid) followed by Txn::Encode for each entry after `since`.
TEST(CommittedLogTest, DiffIsZxidThenTxnEncodeForEachNewerEntry) {
  std::vector<std::pair<Zxid, Txn>> history;
  history.emplace_back(11, MakeTxn(7, 100, Op::Create("/a", Bytes("x"))));
  history.emplace_back(12, MakeTxn(7, 200, Op::SetData("/a", Bytes("yy"), 0)));
  Txn multi = MakeTxn(8, 300, Op{});
  multi.op.type = OpType::kMulti;
  multi.multi_ops = {Op::Create("/b", {}), Op::Delete("/a")};
  history.emplace_back(13, std::move(multi));
  history.emplace_back(14, MakeTxn(9, 400, Op::Delete("/b", 3)));

  CommittedLog log(/*max_entries=*/100);
  for (const auto& [zxid, txn] : history) log.Append(zxid, txn);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_FALSE(log.NeedsSnapshot(0));

  for (Zxid since : {Zxid{0}, Zxid{11}, Zxid{12}, Zxid{14}, Zxid{99}}) {
    wire::BufferWriter expected;
    std::uint64_t newer = 0;
    for (const auto& [zxid, txn] : history) newer += zxid > since ? 1 : 0;
    expected.WriteVarint(newer);
    for (const auto& [zxid, txn] : history) {
      if (zxid <= since) continue;
      expected.WriteI64(zxid);
      txn.Encode(expected);
    }
    wire::BufferWriter got;
    log.WriteDiff(since, got);
    EXPECT_EQ(got.data(), expected.data()) << "since=" << since;
  }
}

// Retention drops the oldest entry and raises the truncation point; the
// diff still carries exactly the retained entries' bytes.
TEST(CommittedLogTest, RetentionTruncatesOldestAndKeepsTailBytes) {
  CommittedLog log(/*max_entries=*/2);
  std::vector<Txn> txns;
  for (int i = 0; i < 5; ++i) {
    txns.push_back(MakeTxn(1, i, Op::Create("/n" + std::to_string(i),
                                            Bytes(std::string(i, 'd')))));
    log.Append(i + 1, txns.back());
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.truncated_upto(), 3);
  EXPECT_TRUE(log.NeedsSnapshot(2));
  EXPECT_FALSE(log.NeedsSnapshot(3));

  wire::BufferWriter expected;
  expected.WriteVarint(2);
  for (int i = 3; i < 5; ++i) {
    expected.WriteI64(i + 1);
    txns[static_cast<std::size_t>(i)].Encode(expected);
  }
  wire::BufferWriter got;
  log.WriteDiff(3, got);
  EXPECT_EQ(got.data(), expected.data());

  log.Reset(42);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.truncated_upto(), 42);
  EXPECT_TRUE(log.NeedsSnapshot(41));
  wire::BufferWriter empty;
  log.WriteDiff(42, empty);
  EXPECT_EQ(empty.data(), std::vector<std::uint8_t>{0});
}

}  // namespace
}  // namespace dufs::zk
