// Ablation — the Lustre DLM contention model. DESIGN.md calls out the
// per-in-flight lock-management cost as the term that makes native Lustre
// *degrade* with client count (and hence determines where DUFS overtakes
// it). This bench sweeps that constant and reports the Basic-Lustre
// dir-create curve and the DUFS/Lustre crossover.
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench/harness.h"
#include "mdtest/workload.h"

using namespace dufs;
using mdtest::MdtestConfig;
using mdtest::MdtestRunner;
using mdtest::Phase;
using mdtest::Target;
using mdtest::Testbed;
using mdtest::TestbedConfig;

namespace {

// `observe` (null for every run but one) is the harness observing this run.
mdtest::PhaseResult MeasureDirCreate(double dlm_us, long procs,
                                     std::size_t items, Target target,
                                     bench::Harness* observe = nullptr) {
  TestbedConfig config;
  config.backend = mdtest::BackendKind::kLustre;
  config.backend_instances = 2;
  config.lustre_perf.dlm_cpu_per_inflight = sim::Us(dlm_us);
  config.enable_trace = observe != nullptr && observe->tracing();
  Testbed tb(config);
  if (observe != nullptr) observe->Arm(tb.obs());
  tb.MountAll();
  if (observe != nullptr) observe->StartTimeline(tb.obs(), tb.sim());
  MdtestConfig mc;
  mc.processes = static_cast<std::size_t>(procs);
  mc.items_per_proc = items;
  MdtestRunner runner(tb, mc);
  auto results = runner.Run(target, {Phase::kDirCreate});
  if (observe != nullptr) observe->Capture(tb.obs());
  return results[0];
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablation_contention", argc, argv,
                   "[--items=N] [--procs=64,256]");
  const auto items = static_cast<std::size_t>(h.flags().Int("items", 25));
  const auto procs_list = h.flags().IntList("procs", {64, 256});
  auto& out = h.metrics();

  std::printf("Ablation: Lustre DLM lock-management cost "
              "(us CPU per in-flight request)\n");
  std::printf("dir-create ops/s; DUFS rows use the same Lustre back-ends\n");
  std::printf("%-10s", "dlm_us");
  for (long p : procs_list) {
    std::printf(" %14s", ("lustre@" + std::to_string(p)).c_str());
  }
  for (long p : procs_list) {
    std::printf(" %14s", ("dufs@" + std::to_string(p)).c_str());
  }
  std::printf("\n");
  const double dlm_values[] = {0.0, 1.1, 2.2, 4.4};
  const std::size_t n_dlm = std::size(dlm_values);
  for (std::size_t di = 0; di < n_dlm; ++di) {
    const double dlm = dlm_values[di];
    char dlm_key[32];
    std::snprintf(dlm_key, sizeof(dlm_key), "dlm_%.1f", dlm);
    // The row prints once complete, so the observed run's status lines
    // cannot land inside it.
    std::vector<double> row;
    for (long p : procs_list) {
      const std::string key =
          std::string(dlm_key) + ".lustre@" + std::to_string(p);
      const auto r = MeasureDirCreate(dlm, p, items, Target::kBaseline);
      h.PhaseErrors(key, r.errors);
      row.push_back(r.ops_per_sec);
      out.AddValue(key, r.ops_per_sec);
    }
    for (std::size_t pi = 0; pi < procs_list.size(); ++pi) {
      const long p = procs_list[pi];
      // Observed run: the default DLM cost at the highest client count —
      // the configuration the paper's crossover argument rests on.
      const bool observed =
          di + 1 == n_dlm && pi + 1 == procs_list.size();
      const std::string key =
          std::string(dlm_key) + ".dufs@" + std::to_string(p);
      const auto r = MeasureDirCreate(dlm, p, items, Target::kDufs,
                                      observed ? &h : nullptr);
      h.PhaseErrors(key, r.errors);
      row.push_back(r.ops_per_sec);
      out.AddValue(key, r.ops_per_sec);
    }
    std::printf("%-10.1f", dlm);
    for (double v : row) std::printf(" %14.1f", v);
    std::printf("\n");
  }
  std::printf("\nTakeaway: without the DLM term (row 0.0) native Lustre "
              "would not degrade\nwith client count and the paper's "
              "crossover would not exist; DUFS dir ops\nnever touch the "
              "MDS, so its rows barely move.\n");
  return h.Finish();
}
