// Reliability demo (paper §IV-I): DUFS keeps serving while coordination
// servers fail, as long as a majority survives.
//
//  1. steady workload against a 5-server ensemble;
//  2. crash a follower  -> writes keep committing (quorum 3/5... 4/5 alive);
//  3. crash the leader  -> election; clients fail over and continue;
//  4. crash to minority -> writes block (reads still served);
//  5. restart a server from its snapshot -> it resyncs and quorum returns.
//
//   $ ./failover_demo
#include <cstdio>

#include "mdtest/testbed.h"
#include "sim/task.h"

using namespace dufs;
using mdtest::Testbed;
using mdtest::TestbedConfig;

namespace {

// Performs `n` mkdir ops and reports how many succeeded.
sim::Task<int> Burst(Testbed* tb, int round, int n) {
  int ok = 0;
  for (int i = 0; i < n; ++i) {
    auto st = co_await tb->client(0).dufs->Mkdir(
        "/r" + std::to_string(round) + "-" + std::to_string(i), 0755);
    if (st.ok()) ++ok;
  }
  co_return ok;
}

void Report(const char* stage, int ok, int total) {
  std::printf("%-46s %d/%d writes committed\n", stage, ok, total);
}

}  // namespace

int main() {
  TestbedConfig config;
  config.zk_servers = 5;
  config.client_nodes = 2;
  config.backend = mdtest::BackendKind::kMemFs;
  config.zk_failure_detection = true;
  Testbed tb(config);
  tb.MountAll();

  std::printf("== DUFS failover demo (5-server ensemble) ==\n\n");

  Report("baseline", sim::RunTask(tb.sim(), Burst(&tb, 0, 20)), 20);

  tb.net().node(tb.zk_nodes()[4]).Crash();
  Report("follower 4 crashed (4/5 alive)",
         sim::RunTask(tb.sim(), Burst(&tb, 1, 20)), 20);

  // Take a snapshot of server 3 before killing it, to restart from later.
  auto snapshot = tb.zk_server(3).TakeSnapshot();
  tb.net().node(tb.zk_nodes()[3]).Crash();
  Report("follower 3 crashed (3/5 alive, bare quorum)",
         sim::RunTask(tb.sim(), Burst(&tb, 2, 20)), 20);

  const std::size_t old_leader = tb.zk_server(0).leader_index();
  tb.net().node(tb.zk_nodes()[old_leader]).Crash();
  // Allow failure detection + election to run.
  tb.sim().Run(tb.sim().now() + sim::Sec(2));
  Report("leader crashed -> 2/5 alive: writes blocked",
         sim::RunTask(tb.sim(), Burst(&tb, 3, 5)), 5);

  // Reads from a surviving replica still work.
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto attr = co_await t.client(0).dufs->GetAttr("/r0-0");
    std::printf("%-46s %s\n", "stale-tolerant read of /r0-0",
                attr.ok() ? "ok" : "failed");
  }(tb));

  // Restart server 3 from its snapshot: quorum (3/5) returns; after the
  // election settles, writes flow again.
  tb.net().node(tb.zk_nodes()[3]).Restart();
  auto st = tb.zk_server(3).RestoreSnapshot(snapshot);
  DUFS_CHECK(st.ok());
  tb.zk_server(3).OnRestart();
  tb.sim().Run(tb.sim().now() + sim::Sec(3));
  Report("server 3 restarted from snapshot (3/5 alive)",
         sim::RunTask(tb.sim(), Burst(&tb, 4, 20)), 20);

  // Let in-flight commits and the resync finish before comparing replicas.
  tb.sim().Run(tb.sim().now() + sim::Sec(2));

  // Every surviving replica converged to the same namespace.
  std::uint64_t fp = 0;
  bool first = true, converged = true;
  for (std::size_t i = 0; i < tb.zk_server_count(); ++i) {
    if (!tb.net().node(tb.zk_nodes()[i]).up()) continue;
    const auto f = tb.zk_server(i).db().Fingerprint();
    if (first) {
      fp = f;
      first = false;
    } else if (f != fp) {
      converged = false;
    }
  }
  std::printf("\nsurviving replicas converged: %s\n",
              converged ? "yes" : "NO");
  return converged ? 0 : 1;
}
