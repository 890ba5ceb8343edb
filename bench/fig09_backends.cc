// Figure 9 — file-operation throughput for different numbers of back-end
// storages merged by DUFS (2 vs 4 Lustre instances), against basic Lustre.
//
// Expected shape (paper §V-C): create/remove barely improve with more
// back-ends (the znode mutation dominates); file stat improves clearly
// (>35% at 256 procs) because the znode read is cheap and the physical
// stat spreads over more MDSes.
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
  bench::Harness h("fig09_backends", argc, argv,
                   "[--procs=64,128,256] [--items=N] [--backends=2,4]");
  const auto procs_list = h.flags().IntList("procs", {64, 128, 256});
  const auto backends_list = h.flags().IntList("backends", {2, 4});
  const auto items = static_cast<std::size_t>(h.flags().Int("items", 30));

  const std::vector<Phase> phases = {Phase::kFileCreate, Phase::kFileRemove,
                                     Phase::kFileStat};
  std::map<Phase, std::map<std::string, std::map<long, double>>> results;

  {
    TestbedConfig config;
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
      // file phases need the skeleton + create before stat/remove: the
      // standard phase order within Run handles it.
      for (auto& r : runner.Run(
               Target::kBaseline,
               {Phase::kFileCreate, Phase::kFileStat, Phase::kFileRemove})) {
        results[r.phase]["Basic Lustre"][procs] = r.ops_per_sec;
        h.PhaseErrors("baseline " + std::string(mdtest::PhaseName(r.phase)),
                      r.errors);
      }
    }
  }

  for (std::size_t bi = 0; bi < backends_list.size(); ++bi) {
    const long n = backends_list[bi];
    // The widest merge (last in --backends) is the observed configuration.
    const bool observed = bi + 1 == backends_list.size();
    TestbedConfig config;
    config.backend = mdtest::BackendKind::kLustre;
    config.backend_instances = static_cast<std::size_t>(n);
    config.zk_servers = 8;
    config.enable_trace = observed && h.tracing();
    Testbed tb(config);
    if (observed) h.Arm(tb.obs());
    tb.MountAll();
    if (observed) h.StartTimeline(tb.obs(), tb.sim());
    const std::string series =
        "DUFS " + std::to_string(n) + " Lustre backends";
    for (long procs : procs_list) {
      MdtestConfig mc;
      mc.processes = static_cast<std::size_t>(procs);
      mc.items_per_proc = items;
      mc.root = "/md" + std::to_string(procs);
      MdtestRunner runner(tb, mc);
      for (auto& r : runner.Run(
               Target::kDufs,
               {Phase::kFileCreate, Phase::kFileStat, Phase::kFileRemove})) {
        results[r.phase][series][procs] = r.ops_per_sec;
        h.PhaseErrors(series + " " + std::string(mdtest::PhaseName(r.phase)),
                      r.errors);
      }
    }
    if (observed) h.Capture(tb.obs());
  }

  std::printf("Figure 9: file-op throughput vs #back-end storages "
              "(8 ZK servers; ops/sec)\n");
  const std::pair<Phase, const char*> figures[] = {
      {Phase::kFileCreate, "Fig 9a: file-create"},
      {Phase::kFileRemove, "Fig 9b: file-remove"},
      {Phase::kFileStat, "Fig 9c: file-stat"},
  };
  for (const auto& [phase, title] : figures) {
    std::vector<std::string> series = {"Basic Lustre"};
    for (long n : backends_list) {
      series.push_back("DUFS " + std::to_string(n) + " Lustre backends");
    }
    bench::SeriesTable table("procs", series);
    for (long procs : procs_list) {
      std::vector<double> row;
      for (const auto& s : series) row.push_back(results[phase][s][procs]);
      table.AddRow(procs, std::move(row));
    }
    table.Print(title);
    h.metrics().AddTable(title, table);
  }
  return h.Finish();
}
