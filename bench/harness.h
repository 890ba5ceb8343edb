// bench::Harness — the one path from a bench's command line to its
// observability and exports. Every bench constructs one first thing in
// main() and returns its Finish():
//
//   int main(int argc, char** argv) {
//     bench::Harness h("fig08_zk_servers", argc, argv, "[--procs=64,...]");
//     const long items = h.flags().Int("items", 30);
//     ...
//     // The one run the bench observes:
//     config.enable_trace = h.tracing();    // before its sim is built
//     Testbed tb(config);
//     h.Arm(tb.obs());                      // before its first op
//     tb.MountAll();
//     h.StartTimeline(tb.obs(), tb.sim());  // once set-up is done
//     ...                                   // the measured ops
//     h.Capture(tb.obs());                  // after its last op
//     ...
//     h.metrics().AddTable(title, table);
//     return h.Finish();
//   }
//
// Runs that are not observed never touch the harness: helpers that measure
// one configuration take a `Harness*` that is null for them.
//
// The shared flags (appended to every bench's usage text):
//   --metrics-json=PATH   write h.metrics() plus the observed run's registry
//   --trace=PATH          record the observed run's spans as Chrome JSON
//   --timeline            sample its gauges into a "timeline" metrics section
//   --timeline-us=N       sim-time sampling period (default 200us)
//   --baseline=PATH       write h.baseline(), the BENCH_<name>.json
//                         regression baseline
//   --slo=SPEC[,SPEC...]  arm the SLO evaluator; SPEC = op:target:budget,
//                         e.g. create:2ms:0.01 (1% of creates may miss 2ms)
//   --flight-dump-dir=DIR arm the anomaly detectors; dumps the flight
//                         recorder to DIR/dump_<seq>_<type>.json on firing
//   --slo-window-us=N     detector/SLO window on sim time (default 10ms)
//   --flight-capacity=N   flight-recorder spans kept per node (default 512)
//   --profile=PATH        sample the CPU profiler over the whole run, write
//                         folded stacks
//   --profile-hz=N        signal-mode sample rate (default 97)
//   --profile-every=N     N > 0: deterministic count mode, fold every Nth
//                         dispatch instead of using SIGPROF (CI gates)
//   --profile-digest=PATH also write the profiler's JSON digest
//
// Exit status: Finish() returns 1 when any export could not be written
// (metrics, trace, baseline, profile, or the dump directory) or the bench
// reported a failure (Fail(), or a phase with failed ops through
// PhaseErrors()); 0 otherwise. A malformed --slo exits 2 at construction,
// like any other usage error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "sim/simulation.h"

namespace dufs::bench {

class Harness {
 public:
  // Parses the bench's flags (`usage` lists its own; the shared ones are
  // appended), validates --slo, creates --flight-dump-dir and starts the
  // profiler.
  Harness(std::string name, int argc, char** argv, const std::string& usage);
  // Stops the profiler if Finish() was never reached; writes nothing.
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  const Flags& flags() const { return flags_; }

  // --- the observed run ----------------------------------------------------
  // Whether the observed run records its full span log (--trace); set it on
  // the run's tracer before the run's sim first runs.
  bool tracing() const { return !trace_path_.empty(); }
  // Arms the incident engine (--slo / --flight-dump-dir) on the run's
  // bundle, which must already be bound to its sim. Call before the run's
  // first op.
  void Arm(obs::Observability& obs);
  // Starts the --timeline sampler over every gauge registered so far.
  void StartTimeline(obs::Observability& obs, sim::Simulation& sim);
  // Takes the trace, registry, timeline and incident report from the run
  // after its last op; writes --trace. Once per bench.
  void Capture(obs::Observability& obs);

  // --- exports -------------------------------------------------------------
  MetricsJsonWriter& metrics() { return metrics_; }
  BaselineWriter& baseline() { return baseline_; }

  // Reports a failed run (a missed expectation): printed now, and Finish()
  // returns 1.
  void Fail(const std::string& why);
  // Fail()s when a measured phase `what` saw `errors` failed ops.
  void PhaseErrors(const std::string& what, std::uint64_t errors);

  // Stops the profiler and writes its export, --metrics-json and
  // --baseline. Returns main()'s exit code.
  int Finish();

 private:
  bool incidents() const { return !slos_.empty() || !dump_dir_.empty(); }
  void StopProfiler();
  // Writes `content` to `path`; on failure warns and marks the run failed.
  bool Write(const char* what, const std::string& path,
             const std::string& content);

  std::string name_;
  Flags flags_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string baseline_path_;
  bool timeline_ = false;
  long timeline_us_ = 200;
  std::vector<obs::SloSpec> slos_;
  std::string dump_dir_;
  long slo_window_us_ = 10000;
  long flight_capacity_ = 0;
  std::string profile_path_;
  std::string profile_digest_path_;
  bool profiling_ = false;

  obs::TimelineSampler timeline_sampler_;
  MetricsJsonWriter metrics_;
  BaselineWriter baseline_;
  bool captured_ = false;
  bool failed_ = false;
};

}  // namespace dufs::bench
