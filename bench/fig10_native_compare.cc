// Figure 10 — DUFS vs native parallel filesystems: Basic Lustre, DUFS over
// 2 Lustre mounts, Basic PVFS, DUFS over 2 PVFS mounts; all six mdtest
// operations vs the number of client processes.
//
// Expected shape (paper §V-D): Lustre wins at small scale but degrades with
// client count; DUFS stays flat and overtakes it by 256 procs (the paper
// quotes dir-create 1.9x over Lustre and 23x over PVFS, file-stat 1.3x /
// 3.0x at 256 procs — printed below as the headline ratios).
#include <cstdio>
#include <map>

#include "bench/harness.h"
#include "mdtest/workload.h"

using namespace dufs;
using mdtest::BackendKind;
using mdtest::MdtestConfig;
using mdtest::MdtestRunner;
using mdtest::Phase;
using mdtest::Target;
using mdtest::Testbed;
using mdtest::TestbedConfig;

namespace {

struct System {
  std::string name;
  BackendKind backend;
  Target target;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("fig10_native_compare", argc, argv,
                   "[--procs=16,...,256] [--items=N] [--quick]");
  std::vector<long> procs_list =
      h.flags().IntList("procs", {16, 32, 64, 128, 192, 256});
  std::size_t items = static_cast<std::size_t>(h.flags().Int("items", 25));
  if (h.flags().Bool("quick")) {
    procs_list = {64, 256};
    items = 10;
  }

  const System systems[] = {
      {"Basic Lustre", BackendKind::kLustre, Target::kBaseline},
      {"DUFS 2xLustre", BackendKind::kLustre, Target::kDufs},
      {"Basic PVFS", BackendKind::kPvfs, Target::kBaseline},
      {"DUFS 2xPVFS", BackendKind::kPvfs, Target::kDufs},
  };
  const Phase order[] = {Phase::kDirCreate, Phase::kDirRemove,
                         Phase::kDirStat, Phase::kFileCreate,
                         Phase::kFileRemove, Phase::kFileStat};

  std::map<Phase, std::map<std::string, std::map<long, double>>> results;

  for (const auto& system : systems) {
    TestbedConfig config;
    config.backend = system.backend;
    config.backend_instances = 2;
    config.zk_servers = 8;
    // DUFS over Lustre is the observed system (--trace records one span per
    // op and per RPC — pair it with --quick to keep the file reviewable).
    const bool observed = system.target == Target::kDufs &&
                          system.backend == BackendKind::kLustre;
    config.enable_trace = observed && h.tracing();
    Testbed tb(config);
    if (observed) h.Arm(tb.obs());
    tb.MountAll();
    if (observed) h.StartTimeline(tb.obs(), tb.sim());
    for (long procs : procs_list) {
      MdtestConfig mc;
      mc.processes = static_cast<std::size_t>(procs);
      mc.items_per_proc = items;
      mc.root = "/r" + std::to_string(procs);
      MdtestRunner runner(tb, mc);
      for (auto& r : runner.Run(system.target,
                                {Phase::kDirCreate, Phase::kDirStat,
                                 Phase::kDirRemove, Phase::kFileCreate,
                                 Phase::kFileStat, Phase::kFileRemove})) {
        results[r.phase][system.name][procs] = r.ops_per_sec;
        h.PhaseErrors(
            system.name + " " + std::string(mdtest::PhaseName(r.phase)),
            r.errors);
      }
      std::fprintf(stderr, "[fig10] %s procs=%ld done\n",
                   system.name.c_str(), procs);
    }
    if (observed) h.Capture(tb.obs());
  }

  std::printf("Figure 10: DUFS vs native Lustre and PVFS2 (ops/sec)\n");
  const char sub[] = {'a', 'b', 'c', 'd', 'e', 'f'};
  for (int i = 0; i < 6; ++i) {
    std::vector<std::string> series;
    for (const auto& s : systems) series.push_back(s.name);
    bench::SeriesTable table("procs", series);
    for (long procs : procs_list) {
      std::vector<double> row;
      for (const auto& s : series) row.push_back(results[order[i]][s][procs]);
      table.AddRow(procs, std::move(row));
    }
    const std::string title = std::string("Fig 10") + sub[i] + ": " +
                              std::string(mdtest::PhaseName(order[i]));
    table.Print(title);
    h.metrics().AddTable(title, table);
  }

  // The paper's §V-D headline ratios at the largest measured scale.
  const long top = procs_list.back();
  auto ratio = [&](Phase phase, const char* a, const char* b) {
    const double denominator = results[phase][b][top];
    return denominator > 0 ? results[phase][a][top] / denominator : 0.0;
  };
  std::printf("\n## Headline ratios at %ld processes (paper: 1.9x, 23x, "
              "1.3x, 3.0x)\n", top);
  std::printf("dir-create  DUFS/Lustre: %4.1fx  (paper  1.9x)\n",
              ratio(Phase::kDirCreate, "DUFS 2xLustre", "Basic Lustre"));
  std::printf("dir-create  DUFS/PVFS:   %4.1fx  (paper 23.0x)\n",
              ratio(Phase::kDirCreate, "DUFS 2xPVFS", "Basic PVFS"));
  std::printf("file-stat   DUFS/Lustre: %4.1fx  (paper  1.3x)\n",
              ratio(Phase::kFileStat, "DUFS 2xLustre", "Basic Lustre"));
  std::printf("file-stat   DUFS/PVFS:   %4.1fx  (paper  3.0x)\n",
              ratio(Phase::kFileStat, "DUFS 2xPVFS", "Basic PVFS"));

  auto& base = h.baseline();
  for (const Phase phase : order) {
    base.AddHigherBetter(
        "dufs_lustre." + std::string(mdtest::PhaseName(phase)) + ".ops_per_s",
        results[phase]["DUFS 2xLustre"][top]);
  }
  base.AddHigherBetter(
      "ratio.dir_create.dufs_over_lustre",
      ratio(Phase::kDirCreate, "DUFS 2xLustre", "Basic Lustre"));
  base.AddHigherBetter("ratio.dir_create.dufs_over_pvfs",
                       ratio(Phase::kDirCreate, "DUFS 2xPVFS", "Basic PVFS"));
  base.AddHigherBetter(
      "ratio.file_stat.dufs_over_lustre",
      ratio(Phase::kFileStat, "DUFS 2xLustre", "Basic Lustre"));
  base.AddHigherBetter("ratio.file_stat.dufs_over_pvfs",
                       ratio(Phase::kFileStat, "DUFS 2xPVFS", "Basic PVFS"));
  return h.Finish();
}
