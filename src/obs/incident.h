// Incident engine: anomaly detectors + SLO evaluator + dump trigger.
//
// Sits between the hot-path hooks (client op completion, ZK queue depth,
// fsync batches, leader changes, MetaCache probes) and the flight recorder:
// when a detector fires it appends a deterministic structured Anomaly record
// and serializes the flight-recorder rings to `<dump_dir>/dump_<seq>_<type>
// .json` for offline root-causing with `tracestats --explain-dump`.
//
// Detectors (all on sim time, all integer/fixed-arithmetic where it matters
// for determinism):
//   p999-spike     — per op class, at window close: current window's p99.9
//                    vs max(spike_floor, spike_factor × trailing-merged
//                    p99.9) once enough trailing windows exist.
//   burn-rate      — per SLO, at window close: window burn (bad-fraction /
//                    budget) ≥ burn_alert.
//   queue-depth    — on sample: a ZK server request queue at or above the
//                    watermark.
//   fsync-stall    — on sample: one journal fsync batch took ≥ stall bound.
//   leader-change  — on event: a ZK server won an election mid-run.
//   cache-collapse — per node, at window close: MetaCache window hit rate
//                    under the floor after a healthy trailing rate.
//
// The engine is disarmed by default: every hook is an inline armed_ check,
// so un-configured runs pay one predictable branch per sample. Benches arm
// it via the bench harness's --slo / --flight-dump-dir flags.
//
// Windows are aligned on absolute sim time (index = now / window_ns), so
// window boundaries — and therefore every detector decision — depend only
// on the simulated history, never on wall clock: two identically-seeded
// runs fire identical anomalies and write byte-identical dumps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/slo.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace dufs::obs {

class FlightRecorder;
class Tracer;
using TrackId = std::uint32_t;

struct AnomalyConfig {
  sim::Duration window_ns = sim::Ms(10);
  int trailing_windows = 8;

  double spike_factor = 3.0;          // p999-spike: × trailing p99.9
  std::int64_t spike_floor_ns = sim::Us(500);
  std::uint64_t spike_min_ops = 16;   // per window, per class

  std::int64_t queue_watermark = 96;  // queue-depth

  sim::Duration fsync_stall_ns = sim::Ms(20);  // fsync-stall (normal ~2ms)

  double hit_rate_floor = 0.5;        // cache-collapse: window rate below...
  double hit_rate_ok = 0.8;           // ...after trailing rate at least this
  std::uint64_t hit_rate_min_probes = 64;

  double burn_alert = 10.0;           // burn-rate: window burn at least this
  std::uint64_t burn_min_ops = 16;

  int max_dumps = 4;                  // dumps written to disk per run
  sim::Duration cooldown_ns = sim::Ms(50);  // per (type, node)
  std::string dump_dir;               // empty = record anomalies, no dumps
};

struct Anomaly {
  std::uint64_t seq = 0;
  sim::SimTime t = 0;
  const char* type = "";
  std::string node;
  std::int64_t value = 0;      // what was observed (ns, depth, epoch, ...)
  std::int64_t threshold = 0;  // what it was compared against
  std::string detail;
  std::string dump_path;       // empty when no dump was written
};

class Incidents {
 public:
  // Wire up clock, node names, and the rings to dump. Must be called before
  // Arm(); the tracer also resolves TrackId -> node name for anomalies.
  void Bind(sim::Simulation* sim, Tracer* tracer, FlightRecorder* flight) {
    sim_ = sim;
    tracer_ = tracer;
    flight_ = flight;
  }

  void Configure(const AnomalyConfig& config);
  // Register one SLO; `spec.op` must be a canonical class-name literal (see
  // CanonicalOpName). Implies Arm-on-Configure.
  void AddSlo(const SloSpec& spec);
  // Start detecting. Disarmed engines ignore every hook.
  void Arm();
  bool armed() const { return armed_; }

  // ---- hot-path hooks (inline disarmed check, out-of-line body) ----

  // A client op of class `cls` (canonical literal) finished in `latency_ns`.
  void RecordOp(const char* cls, TrackId track, std::int64_t latency_ns) {
    if (armed_) OpSample(cls, track, latency_ns);
  }
  // Instantaneous ZK request-queue depth on `track`.
  void RecordQueueDepth(TrackId track, std::int64_t depth) {
    if (armed_) QueueSample(track, depth);
  }
  // One journal fsync batch on `track` took `dur_ns` covering `batch` ops.
  void RecordFsync(TrackId track, std::int64_t dur_ns, std::int64_t batch) {
    if (armed_) FsyncSample(track, dur_ns, batch);
  }
  // A ZK server on `track` became leader of `epoch`.
  void RecordLeaderChange(TrackId track, std::int64_t epoch) {
    if (armed_) LeaderSample(track, epoch);
  }
  // One MetaCache lookup on `track` hit or missed.
  void RecordCacheProbe(TrackId track, bool hit) {
    if (armed_) ProbeSample(track, hit);
  }

  // ---- results ----

  const std::vector<Anomaly>& anomalies() const { return anomalies_; }
  std::uint64_t suppressed() const { return suppressed_; }
  // Finalize the open window (call after the sim drains, before reporting).
  void Flush();
  // The "incidents" section of --metrics-json: anomalies, SLO verdicts, and
  // per-class per-node quantiles. Deterministic formatting.
  std::string ReportJson() const;

  // Resolve a user-supplied op-class name ("create") to the canonical
  // literal the client instrumentation uses; nullptr when unknown.
  static const char* CanonicalOpName(const std::string& name);

 private:
  static constexpr int kMaxClasses = 16;

  struct ClassState {
    const char* name = "";
    SlidingDigest cluster;                 // sliding, cluster-wide
    std::vector<Log2Hist> per_track;       // cumulative, per node
  };
  struct ProbeState {
    std::uint64_t window_hits = 0;
    std::uint64_t window_probes = 0;
    std::uint64_t trailing_hits = 0;
    std::uint64_t trailing_probes = 0;
  };
  struct Cooldown {
    const char* type = "";
    TrackId track = 0;
    bool cluster = false;
    sim::SimTime last = 0;
  };

  void OpSample(const char* cls, TrackId track, std::int64_t latency_ns);
  void QueueSample(TrackId track, std::int64_t depth);
  void FsyncSample(TrackId track, std::int64_t dur_ns, std::int64_t batch);
  void LeaderSample(TrackId track, std::int64_t epoch);
  void ProbeSample(TrackId track, bool hit);

  int ClassIndex(const char* cls);  // get-or-register
  void RollTo(sim::SimTime now);    // close windows up to now's window
  void CloseWindow();               // detectors + roll, one window
  bool InCooldown(const char* type, TrackId track, bool cluster);
  void Fire(const char* type, TrackId track, bool cluster, std::int64_t value,
            std::int64_t threshold, std::string detail);
  std::string NodeName(TrackId track, bool cluster) const;
  std::string AnomalyJson(const Anomaly& a) const;

  sim::Simulation* sim_ = nullptr;
  Tracer* tracer_ = nullptr;
  FlightRecorder* flight_ = nullptr;

  AnomalyConfig config_;
  bool armed_ = false;

  std::vector<ClassState> classes_;
  std::vector<SloState> slos_;
  std::vector<ProbeState> probes_;  // per track
  std::vector<Cooldown> cooldowns_;

  bool window_open_ = false;
  std::uint64_t cur_window_ = 0;  // index of the open window
  std::uint64_t windows_closed_ = 0;

  std::vector<Anomaly> anomalies_;
  std::uint64_t suppressed_ = 0;
  std::uint64_t burn_alerts_ = 0;
  int dumps_written_ = 0;
};

}  // namespace dufs::obs
