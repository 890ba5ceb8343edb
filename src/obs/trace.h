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
// One span store: while enabled, every completed span is appended, with
// its args, in admission order. Two exports read it: the --trace Chrome
// JSON lists every record; an anomaly dump (incident.h) lists each track's
// newest kTrackCapacity records. --trace and --flight-dump-dir
// (Incidents::Configure with a dump dir) both enable the tracer, so either
// run's memory grows with the run. Not enabled, Complete returns on one
// branch before it builds a record and Span args are not collected, so an
// untraced span allocates nothing. Trace ids are allocated either way (they
// ride inside modelled payloads). A tracer with no bound simulation cannot
// be enabled.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/prof.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace dufs::obs {

using TraceId = std::uint64_t;  // 0 = untraced
using TrackId = std::uint32_t;  // one per sim node ("thread" in the export)

class Tracer {
 public:
  // The most records an anomaly dump lists per track.
  static constexpr std::uint32_t kTrackCapacity = 512;

  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The tracer reads timestamps from this simulation. Must be called before
  // SetEnabled().
  void Bind(sim::Simulation* sim) { sim_ = sim; }
  bool bound() const { return sim_ != nullptr; }

  // Enabled, Complete keeps a record. A site whose args cost work to build
  // checks enabled() first, so an idle tracer costs it one branch.
  void SetEnabled(bool on) { enabled_ = on && sim_ != nullptr; }
  bool enabled() const { return enabled_; }

  // Get-or-create a track by node name. Track ids are assigned in
  // registration order (construction order of the testbed — deterministic).
  TrackId Track(const std::string& name);
  const std::vector<std::string>& tracks() const { return tracks_; }

  TraceId NewTrace() { return ++last_trace_; }
  TraceId current() const { return current_; }
  void SetCurrent(TraceId id) { current_ = id; }

  // Spans hand in names, categories and arg keys as obs::Name (checked
  // string literals: the type enforces that at every call site), so records
  // store the pointer instead of copying.
  struct Arg {
    Arg(const char* k, std::int64_t n) : key(k), num(n) {}
    Arg(const char* k, std::string_view s) : key(k), str(s), is_string(true) {}

    const char* key = "";
    std::int64_t num = 0;  // unless is_string
    std::string str;       // when is_string
    bool is_string = false;
  };

  // One completed span. Its seq, the global admission order, is its index
  // in the store + 1.
  struct Record {
    const char* name = "";
    const char* cat = "";
    sim::SimTime start = 0;
    sim::Duration dur = 0;
    TraceId trace = 0;
    std::uint32_t args = 0;  // first arg in args_
    std::uint32_t nargs = 0;
    TrackId track = 0;
  };
  static_assert(sizeof(Record) <= 56, "a record stays within 56 bytes");

  // The export view of one record. `args` points into the store: it stays
  // valid until the tracer next records or is cleared.
  struct Event {
    TrackId track = 0;
    const char* name = "";
    const char* cat = "";
    sim::SimTime start = 0;
    sim::Duration dur = 0;
    TraceId trace = 0;
    std::span<const Arg> args;
  };

  // Record a complete ("X") span; a no-op unless enabled. `name`, `cat` and
  // arg keys must outlive the tracer (use literals).
  void Complete(TrackId track, const char* name, const char* cat,
                sim::SimTime start, sim::Duration dur, TraceId trace,
                std::span<const Arg> args = {});
  void Complete(TrackId track, const char* name, const char* cat,
                sim::SimTime start, sim::Duration dur, TraceId trace,
                std::initializer_list<Arg> args) {
    Complete(track, name, cat, start, dur, trace,
             std::span<const Arg>(args.begin(), args.size()));
  }

  // Every record, in admission order. Records stay until Clear(), also
  // after SetEnabled(false).
  std::vector<Event> events() const;
  std::size_t traced() const { return records_.size(); }
  // Drop every record and restart the admission count.
  void Clear() {
    records_.clear();
    args_.clear();
  }

  // Chrome trace_event JSON ("traceEvents" array of track metadata + "X"
  // events, ts/dur in microseconds with fixed 3-decimal formatting) of every
  // record, in admission order. Byte-stable for identical span sequences.
  std::string ToChromeJson() const { return Json("", false); }
  // The anomaly dump: `anomaly_json` (pre-rendered; empty = omitted), then
  // the newest kTrackCapacity records of every track, track by track, each
  // with its seq and its "wait_ns" arg in place of its args. A tracer never
  // enabled lists only its tracks.
  std::string DumpJson(const std::string& anomaly_json) const {
    return Json(anomaly_json, true);
  }

  sim::SimTime now() const { return sim_ != nullptr ? sim_->now() : 0; }

 private:
  std::span<const Arg> ArgsOf(const Record& rec) const {
    return std::span<const Arg>(args_).subspan(rec.args, rec.nargs);
  }
  // The one writer behind ToChromeJson and DumpJson.
  std::string Json(const std::string& anomaly_json, bool dump) const;

  sim::Simulation* sim_ = nullptr;
  bool enabled_ = false;
  TraceId last_trace_ = 0;
  TraceId current_ = 0;
  std::vector<std::string> tracks_;
  std::vector<Record> records_;  // in admission order
  std::vector<Arg> args_;        // of every record, in admission order
};

struct NodeObs;  // obs.h

// RAII span: opens at construction, emits one complete event at End() /
// destruction. Move-only; inactive (null tracer, unbound tracer, or
// default-constructed) spans are free.
class Span {
 public:
  Span() = default;

  // Attached span: inherits the tracer's current trace id. Inline so the
  // inactive path costs one branch at the call site.
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
    if (tracer == nullptr || !tracer->bound()) return;
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

  // Args are kept only while the tracer is enabled; otherwise these return
  // at once and the string is not copied.
  void ArgInt(Name key, std::int64_t value) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    args_.emplace_back(key.c_str(), value);
  }
  void ArgStr(Name key, std::string_view value) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    args_.emplace_back(key.c_str(), value);
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
  std::vector<Tracer::Arg> args_;
  prof::FrameToken prof_;
};

}  // namespace dufs::obs
