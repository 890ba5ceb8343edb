// Trace-span layer — the timeline half of the observability layer.
//
// RAII spans stamped with Simulation::now() carry a per-operation trace id
// from the DufsClient op that roots it, through the zk::ZkClient RPC, the
// quorum PROPOSE/ACK/COMMIT round on the zk::ZkServer leader, down to the
// journal fsync batch and the pfs back-end calls. Export is Chrome
// trace_event JSON (one "thread" per sim node), loadable in Perfetto or
// chrome://tracing.
//
// Propagation model: the simulator is single-threaded and coroutines run
// synchronously until their first suspension, so a "current trace id" slot
// on the Tracer is enough — a caller arms it immediately before co_await-ing
// into a lower layer, and the callee reads it at entry (before its first
// suspension). After any resumption the slot may belong to another
// interleaved operation; re-arm (Span::Arm) before the next downstream call.
// Across the wire the id travels explicitly (ClientRequest::trace,
// Txn::trace) because the server-side handler runs on a different node's
// coroutine stack.
//
// Determinism: trace ids are a per-Tracer counter and timestamps are sim
// time, so two identically-seeded runs export byte-identical JSON (this is
// asserted in tests/obs/trace_determinism_test.cc). Keep process-global
// values — session ids, pointers, host time — out of span names and args.
//
// Everything no-ops when disabled: Span construction checks recording() once
// and stores nullptr, so the hot-path cost of a compiled-in span is one
// branch.
//
// Flight recording: attaching a FlightRecorder (flight.h) keeps spans live
// even while the full event log is disabled — completed spans go into the
// recorder's bounded per-track rings instead of events_. Span args are only
// collected when the full log is enabled (flight records are POD); the one
// arg the decomposition needs, wait_ns, travels via Span::WaitNs.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "obs/prof.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace dufs::obs {

using TraceId = std::uint64_t;  // 0 = untraced
using TrackId = std::uint32_t;  // one per sim node ("thread" in the export)

class FlightRecorder;  // flight.h

namespace detail {
// The fixed three-decimal microsecond formatting that keeps the tracer
// export and the flight-recorder dump byte-stable (defined in trace.cc).
void AppendJsonMicros(std::string& out, std::int64_t ns);
}  // namespace detail

class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The tracer reads timestamps from this simulation. Must be called before
  // Enable().
  void Bind(sim::Simulation* sim) {
    sim_ = sim;
    UpdateRecording();
  }

  void SetEnabled(bool on) {
    enabled_ = on && sim_ != nullptr;
    UpdateRecording();
  }
  bool enabled() const { return enabled_; }

  // Flight recorder attachment: completed spans are additionally (or, when
  // the full log is disabled, only) admitted into `flight`'s rings. Pass
  // nullptr to detach.
  void AttachFlight(FlightRecorder* flight) {
    flight_ = flight;
    UpdateRecording();
  }
  FlightRecorder* flight() const { return flight_; }

  // True when spans should stay live: the full event log is enabled or a
  // flight recorder is attached (and a sim provides timestamps). This is the
  // guard every span construction and instrumentation site uses.
  bool recording() const { return recording_; }

  // Get-or-create a track by node name. Track ids are assigned in
  // registration order (construction order of the testbed — deterministic).
  TrackId Track(const std::string& name);
  const std::vector<std::string>& tracks() const { return tracks_; }

  TraceId NewTrace() { return ++last_trace_; }
  TraceId current() const { return current_; }
  void SetCurrent(TraceId id) { current_ = id; }

  // Spans hand in names, categories and arg keys as obs::Name (checked
  // string literals: the type enforces that at every call site), so events
  // store the pointer instead of copying — an enabled span costs no string
  // work until export.
  struct Arg {
    const char* key = "";
    std::string str;       // when is_string
    std::int64_t num = 0;  // otherwise
    bool is_string = false;
  };

  struct Event {
    TrackId track = 0;
    const char* name = "";
    const char* cat = "";
    sim::SimTime start = 0;
    sim::Duration dur = 0;
    TraceId trace = 0;
    std::vector<Arg> args;
  };

  // Record a complete ("X") event. No-op while not recording. `name` and
  // `cat` must outlive the tracer (use literals). `wait_ns` is the queueing
  // share of the span for the flight record (-1 = not applicable); the full
  // event log carries it as a span arg instead.
  void Complete(TrackId track, const char* name, const char* cat,
                sim::SimTime start, sim::Duration dur, TraceId trace,
                std::vector<Arg> args = {}, std::int64_t wait_ns = -1);

  const std::vector<Event>& events() const { return events_; }
  void Clear() { events_.clear(); }

  // Chrome trace_event JSON ("traceEvents" array of metadata + "X" events,
  // ts/dur in microseconds with fixed 3-decimal formatting). Byte-stable
  // for identical event sequences.
  std::string ToChromeJson() const;
  // Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

  sim::SimTime now() const { return sim_ != nullptr ? sim_->now() : 0; }

 private:
  void UpdateRecording() {
    recording_ = sim_ != nullptr && (enabled_ || flight_ != nullptr);
  }

  sim::Simulation* sim_ = nullptr;
  bool enabled_ = false;
  bool recording_ = false;
  FlightRecorder* flight_ = nullptr;
  TraceId last_trace_ = 0;
  TraceId current_ = 0;
  std::vector<std::string> tracks_;
  std::vector<Event> events_;
};

struct NodeObs;  // obs.h

// RAII span: opens at construction, emits one complete event at End() /
// destruction. Move-only; inactive (null tracer, disabled tracer, or
// default-constructed) spans are free.
class Span {
 public:
  Span() = default;

  // Attached span: inherits the tracer's current trace id. Inline so the
  // disabled path costs one branch at the call site.
  Span(Tracer* tracer, TrackId track, Name name, Name cat)
      : Span(tracer, track, name, cat,
             tracer != nullptr ? tracer->current() : 0) {}
  // Explicit-trace span (server side: the id arrived over the wire).
  Span(Tracer* tracer, TrackId track, Name name, Name cat, TraceId trace) {
    // Every span doubles as a profiler frame (op-class for client ops,
    // component otherwise) — so the existing instrumentation points feed the
    // CPU profile even when the tracer itself is not recording. One branch
    // each when profiling / tracing is off.
    prof_ = prof::PushFrame(name, std::strcmp(cat.c_str(), "op") == 0
                                      ? prof::FrameKind::kOpClass
                                      : prof::FrameKind::kComponent);
    if (tracer == nullptr || !tracer->recording()) return;
    tracer_ = tracer;
    track_ = track;
    name_ = name.c_str();
    cat_ = cat.c_str();
    start_ = tracer->now();
    trace_ = trace;
  }

  // Root span: allocates a fresh trace id and makes it current (the start
  // of a client operation).
  static Span Root(const NodeObs& obs, Name name, Name cat);
  // Attached span from a NodeObs bundle.
  Span(const NodeObs& obs, Name name, Name cat);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      tracer_ = other.tracer_;
      other.tracer_ = nullptr;
      track_ = other.track_;
      name_ = other.name_;
      cat_ = other.cat_;
      start_ = other.start_;
      trace_ = other.trace_;
      root_ = other.root_;
      wait_ns_ = other.wait_ns_;
      args_ = std::move(other.args_);
      prof_ = other.prof_;
      other.prof_ = prof::FrameToken{};
    }
    return *this;
  }

  ~Span() { End(); }

  bool active() const { return tracer_ != nullptr; }
  TraceId trace() const { return trace_; }

  // Re-publish this span's trace id as the tracer's current. Call after a
  // resumption, immediately before co_await-ing into a lower layer.
  void Arm() {
    if (tracer_ != nullptr) tracer_->SetCurrent(trace_);
  }

  // Args attach to the full event log only — flight records are POD, so a
  // flight-only span never allocates an arg vector.
  void ArgInt(Name key, std::int64_t value) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    args_.push_back(Tracer::Arg{key.c_str(), {}, value, false});
  }
  void ArgStr(Name key, std::string value) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    args_.push_back(Tracer::Arg{key.c_str(), std::move(value), 0, true});
  }

  // Queueing share of this span in ns; lands in the flight record so the
  // tracestats nic-wait/wire split works on anomaly dumps. Call sites that
  // also want it in the full trace export still ArgInt("wait_ns", ...).
  void WaitNs(std::int64_t value) {
    if (tracer_ == nullptr) return;
    wait_ns_ = value;
  }

  // Emit the event; idempotent. A root span also clears the current trace
  // id (if still its own) so unrelated background work is not attributed
  // to a finished operation.
  void End() {
    prof::PopFrame(prof_);  // the frame may outlive the tracer's interest
    if (tracer_ == nullptr) return;
    Emit();
  }

 private:
  void Emit();  // out-of-line tail of End(): record + root cleanup

  Tracer* tracer_ = nullptr;
  TrackId track_ = 0;
  const char* name_ = "";
  const char* cat_ = "";
  sim::SimTime start_ = 0;
  TraceId trace_ = 0;
  bool root_ = false;
  std::int64_t wait_ns_ = -1;
  std::vector<Tracer::Arg> args_;
  prof::FrameToken prof_;
};

}  // namespace dufs::obs
