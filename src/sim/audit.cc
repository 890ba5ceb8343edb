#include "sim/audit.h"

#ifdef DUFS_AUDIT

#include <utility>

#include "common/hash.h"
#include "common/log.h"

namespace dufs::sim::audit {
namespace {

// Keep reports bounded even if a bug fires on a hot path.
constexpr std::size_t kMaxViolations = 64;

struct FrameState {
  std::uint64_t id = 0;  // allocation ordinal, stable across identical runs
  std::size_t bytes = 0;
  bool completed = false;
  int pending_schedules = 0;
};

// The simulator is single-threaded by construction, so the registry is a
// plain global. Frames are keyed by their allocation pointer, which is the
// coroutine_handle address for every sim::Task promise.
struct Registry {
  HashMap<void*, FrameState> live;
  Report report;
  std::uint64_t next_id = 1;

  void Violation(std::string text) {
    if (report.violations.size() < kMaxViolations) {
      report.violations.push_back(std::move(text));
    }
  }
};

Registry& Reg() {
  static Registry* r = new Registry();  // leaked: outlives static teardown
  return *r;
}

std::string FrameName(const FrameState& st) {
  return "frame#" + std::to_string(st.id);
}

}  // namespace

Report Snapshot() {
  Registry& r = Reg();
  Report out = r.report;
  out.live_frames = r.live.size();
  return out;
}

void Reset() {
  Registry& r = Reg();
  r.live.clear();
  r.report = Report{};
  r.next_id = 1;
}

void FrameAllocated(void* frame, std::size_t bytes) {
  Registry& r = Reg();
  ++r.report.frames_allocated;
  FrameState st;
  st.id = r.next_id++;
  st.bytes = bytes;
  r.live[frame] = st;
}

void FrameFreed(void* frame) {
  Registry& r = Reg();
  auto it = r.live.find(frame);
  if (it == r.live.end()) return;  // allocated before the last Reset()
  ++r.report.frames_freed;
  if (it->second.pending_schedules > 0) {
    ++r.report.destroyed_while_scheduled;
    r.Violation(FrameName(it->second) +
                " destroyed while an event still references it");
  }
  r.live.erase(it);
}

void FrameCompleted(void* frame) {
  Registry& r = Reg();
  auto it = r.live.find(frame);
  if (it == r.live.end()) return;
  it->second.completed = true;
}

void HandleScheduled(void* frame) {
  Registry& r = Reg();
  auto it = r.live.find(frame);
  if (it == r.live.end()) return;  // not a Task frame (or pre-Reset)
  FrameState& st = it->second;
  if (st.completed) {
    ++r.report.schedules_after_completion;
    r.Violation("schedule of already-completed " + FrameName(st));
  } else if (st.pending_schedules > 0) {
    ++r.report.double_schedules;
    r.Violation("double-schedule of suspended " + FrameName(st) +
                " (one suspension, two resumes)");
  }
  ++st.pending_schedules;
}

void HandleResumed(void* frame) {
  Registry& r = Reg();
  auto it = r.live.find(frame);
  if (it == r.live.end()) return;
  if (it->second.pending_schedules > 0) --it->second.pending_schedules;
}

void EventDroppedAtShutdown(void* frame_or_null) {
  Registry& r = Reg();
  ++r.report.events_dropped_at_shutdown;
  if (frame_or_null == nullptr) return;
  auto it = r.live.find(frame_or_null);
  if (it == r.live.end()) return;
  // The event dies with the queue; the frame is no longer "scheduled", so
  // the detached-frame destruction below it is not a violation.
  if (it->second.pending_schedules > 0) --it->second.pending_schedules;
}

void ClockRegression(std::int64_t now, std::int64_t event_time) {
  Registry& r = Reg();
  ++r.report.clock_regressions;
  r.Violation("event time " + std::to_string(event_time) +
              " behind sim clock " + std::to_string(now));
}

void SimTeardown() {
  Registry& r = Reg();
  if (r.live.empty()) return;
  // Frames held by still-live Task objects (declared before the Simulation)
  // are legal here, so this is a report, not an abort; the audit tests and
  // the DUFS_AUDIT CI job assert clean() at points where zero is required.
  DUFS_LOG(Warn) << "sim audit: " << r.live.size()
                 << " coroutine frame(s) still live at sim teardown";
}

}  // namespace dufs::sim::audit

#endif  // DUFS_AUDIT
