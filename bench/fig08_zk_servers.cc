// Figure 8 — mdtest operation throughput with DUFS over 2 Lustre back-end
// storages, varying the ZooKeeper ensemble size (1/4/8), against a basic
// Lustre configuration with one metadata server.
//
// Expected shape (paper §V-B): read phases (dir/file stat) improve markedly
// with more ZooKeeper servers; mutation phases react less; 8 servers is a
// good compromise; DUFS beats basic Lustre at 256 processes.
#include <cstdio>
#include <map>

#include "bench/harness.h"
#include "mdtest/workload.h"

using namespace dufs;
using mdtest::MdtestConfig;
using mdtest::MdtestRunner;
using mdtest::Phase;
using mdtest::Target;
using mdtest::Testbed;
using mdtest::TestbedConfig;

int main(int argc, char** argv) {
  bench::Harness h("fig08_zk_servers", argc, argv,
                   "[--procs=64,128,256] [--items=N] [--zk=1,4,8]");
  const auto procs_list = h.flags().IntList("procs", {64, 128, 256});
  const auto zk_list = h.flags().IntList("zk", {1, 4, 8});
  const auto items = static_cast<std::size_t>(h.flags().Int("items", 30));

  // MdtestRunner runs phases in the order given: each stat must run while
  // its entries still exist, between their create and their remove.
  const std::vector<Phase> phases = {Phase::kDirCreate, Phase::kDirStat,
                                     Phase::kDirRemove, Phase::kFileCreate,
                                     Phase::kFileStat, Phase::kFileRemove};
  // results[phase][series][procs]
  std::map<Phase, std::map<std::string, std::map<long, double>>> results;

  // Basic Lustre baseline.
  {
    TestbedConfig config;
    config.zk_servers = 1;  // unused by the baseline path
    config.backend = mdtest::BackendKind::kLustre;
    config.backend_instances = 2;
    Testbed tb(config);
    tb.MountAll();
    for (long procs : procs_list) {
      MdtestConfig mc;
      mc.processes = static_cast<std::size_t>(procs);
      mc.items_per_proc = items;
      mc.root = "/bl" + std::to_string(procs);
      MdtestRunner runner(tb, mc);
      for (auto& r : runner.Run(Target::kBaseline, phases)) {
        results[r.phase]["Basic Lustre"][procs] = r.ops_per_sec;
        h.PhaseErrors("baseline " + std::string(mdtest::PhaseName(r.phase)),
                      r.errors);
      }
    }
  }

  for (std::size_t zi = 0; zi < zk_list.size(); ++zi) {
    const long zk = zk_list[zi];
    // The largest ensemble (last in --zk) is the observed configuration:
    // it gets the trace, the timeline, and the registry dump.
    const bool observed = zi + 1 == zk_list.size();
    TestbedConfig config;
    config.zk_servers = static_cast<std::size_t>(zk);
    config.backend = mdtest::BackendKind::kLustre;
    config.backend_instances = 2;
    config.enable_trace = observed && h.tracing();
    Testbed tb(config);
    if (observed) h.Arm(tb.obs());
    tb.MountAll();
    if (observed) h.StartTimeline(tb.obs(), tb.sim());
    const std::string series = std::to_string(zk) + " Zookeeper";
    for (long procs : procs_list) {
      MdtestConfig mc;
      mc.processes = static_cast<std::size_t>(procs);
      mc.items_per_proc = items;
      mc.root = "/md" + std::to_string(procs);
      MdtestRunner runner(tb, mc);
      for (auto& r : runner.Run(Target::kDufs, phases)) {
        results[r.phase][series][procs] = r.ops_per_sec;
        h.PhaseErrors(series + " " + std::string(mdtest::PhaseName(r.phase)),
                      r.errors);
      }
    }
    if (observed) h.Capture(tb.obs());
  }

  std::printf("Figure 8: throughput vs #Zookeeper servers, DUFS over 2 "
              "Lustre back-ends (ops/sec)\n");
  const char sub[] = {'a', 'b', 'c', 'd', 'e', 'f'};
  const Phase order[] = {Phase::kDirCreate, Phase::kDirRemove,
                         Phase::kDirStat, Phase::kFileCreate,
                         Phase::kFileRemove, Phase::kFileStat};
  for (int i = 0; i < 6; ++i) {
    // Table series, each with the name of its cells in the baseline.
    std::vector<std::string> series = {"Basic Lustre"};
    std::vector<std::string> keys = {"basic_lustre"};
    for (long zk : zk_list) {
      series.push_back(std::to_string(zk) + " Zookeeper");
      keys.push_back("zk_" + std::to_string(zk));
    }
    bench::SeriesTable table("procs", series);
    const std::string phase(mdtest::PhaseName(order[i]));
    for (long procs : procs_list) {
      std::vector<double> row;
      for (std::size_t si = 0; si < series.size(); ++si) {
        row.push_back(results[order[i]][series[si]][procs]);
        h.baseline().AddHigherBetter(phase + "." + keys[si] + ".procs_" +
                                         std::to_string(procs) + ".ops_per_s",
                                     row.back());
      }
      table.AddRow(procs, std::move(row));
    }
    const std::string title = std::string("Fig 8") + sub[i] + ": " + phase;
    table.Print(title);
    h.metrics().AddTable(title, table);
  }
  return h.Finish();
}
