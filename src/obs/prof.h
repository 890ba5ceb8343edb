// Coroutine-aware CPU sampling profiler (DESIGN.md §14).
//
// Native stack samples through a coroutine scheduler are useless: every
// resume bottoms out in `coroutine_handle::resume` and the logical caller —
// which node, which op class, which protocol phase — is gone. This layer
// maintains the *logical* stack explicitly: a thread-local array of POD
// frames (`const char*` name + kind) pushed/popped by RAII `ProfScope`
// guards, by the trace-span layer (every obs::Span doubles as a frame), and
// by the scheduler itself (callback dispatch, spawn, wheel maintenance,
// arena growth). A SIGPROF/itimer handler reads that array
// async-signal-safely and a sample collapses to `zk3;op.create;quorum;fsync`
// instead of a raw C++ backtrace.
//
// Coroutine awareness: the logical stack would be wrong across suspensions —
// a frame pushed before `co_await` belongs to the coroutine, not to whatever
// the scheduler dispatches next. So `Simulation::ScheduleHandle` captures the
// portion of the stack above a per-burst floor into a pooled POD snapshot
// (a copy — never live pointers, so a scope dying before a detached task
// resumes cannot dangle), and the dispatch loop rematerializes it around the
// resume. Sync-primitive waiter lists capture at `await_suspend` time
// (sim::SuspendedHandle) because their wake runs on the waker's stack.
//
// Signal-safety rules (the handler may interrupt any instruction):
//   * The handler only reads the context array and writes one slot of a
//     pre-allocated fixed ring (SPSC, monotonic indices). No allocation, no
//     locks, no formatting, no library calls beyond atomics.
//   * Publication order: mutators write the frame slot, then
//     `atomic_signal_fence(release)`, then bump `depth`; the handler reads
//     `depth` first, so it only ever sees fully-written frames.
//   * Frame names are obs::Name values — checked string literals or
//     prof::InternName results, storage that outlives every sample holding
//     the pointer (the type rejects any other name at compile time).
//   * Ring overflow drops the sample and counts it; it never blocks.
//
// Two sampling modes:
//   * kSignal: wall-clock CPU profile via setitimer(ITIMER_PROF) — the real
//     profiler. Nondeterministic by nature; its exports are excluded from
//     the byte-compare determinism gates.
//   * kCount: fold the current stack into the trie every Nth dispatch. No
//     signals, no ring; counts follow the simulation's deterministic event
//     order, so exports are byte-identical run to run and machine to
//     machine — this is what tests and the CI cpu-profile gate use.
//
// Disabled cost is one predictable branch per hook; nothing else is touched.
//
// This header is standalone (std headers and obs/name.h only): src/sim
// depends on it, so it must not depend on src/sim or the rest of src/obs.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>

#include "obs/name.h"

namespace dufs::prof {

// What a frame means; disambiguates identical names and feeds the digest.
enum class FrameKind : std::uint8_t {
  kNode = 0,         // a sim node: "client0", "zk3", "pfs1"
  kOpClass = 1,      // a client operation class: "create", "stat", ...
  kComponent = 2,    // a protocol/component phase: "quorum-round", "fsync"
  kEnginePhase = 3,  // scheduler internals: "engine.callback", "engine.wheel"
};
const char* FrameKindLabel(FrameKind kind);  // "node"/"op"/"component"/"engine"

// One logical stack entry. POD; `name` must outlive every sample (literal or
// InternName).
struct Frame {
  const char* name;
  FrameKind kind;
};

namespace internal {

inline constexpr std::uint32_t kMaxDepth = 32;

enum Mode : int { kOff = 0, kSignal = 1, kCount = 2 };

// Global on/off switch; relaxed-loaded by every hook (the one branch).
inline std::atomic<int> g_mode{kOff};

inline bool Active() {
  return g_mode.load(std::memory_order_relaxed) != kOff;
}

// The thread-local logical stack. `depth` is atomic only for the
// signal-handler handshake (same thread, so relaxed + signal fences
// suffice); everything else is owned by ordinary code.
struct ContextStack {
  Frame frames[kMaxDepth] = {};
  std::atomic<std::uint32_t> depth{0};
  // Entries below `floor` belong to the enclosing dispatch burst (or the OS
  // stack) and are not captured into snapshots — that is what stops a
  // restored context from being re-captured and duplicated every burst.
  std::uint32_t floor = 0;
  // Bumped at every burst boundary; a ProfScope pop whose recorded
  // generation is stale falls back to a by-name search (see PopFrame).
  std::uint64_t generation = 0;
  std::uint64_t truncated = 0;  // pushes dropped at kMaxDepth
};

inline constinit thread_local ContextStack g_ctx;

}  // namespace internal

// A captured logical-stack segment carried by a pending coroutine resume.
// POD copy from a fixed pool; freed (recycled) when the resume fires or the
// event is dropped at shutdown.
struct Snapshot {
  std::uint32_t n = 0;
  Frame frames[internal::kMaxDepth];
};

namespace internal {
Snapshot* CaptureSlow(ContextStack& c, std::uint32_t depth);
void ReleaseSnapshot(Snapshot* s);
}  // namespace internal

// Captures the stack above the current floor. nullptr when profiling is off
// or nothing local is on the stack — the caller stores and later frees it
// unconditionally (FreeSnapshot(nullptr) is a no-op).
inline Snapshot* CaptureContext() {
  if (!internal::Active()) return nullptr;
  internal::ContextStack& c = internal::g_ctx;
  const std::uint32_t d = c.depth.load(std::memory_order_relaxed);
  if (d <= c.floor) return nullptr;
  return internal::CaptureSlow(c, d);
}

inline void FreeSnapshot(Snapshot* s) {
  if (s != nullptr) internal::ReleaseSnapshot(s);
}

// Pop ticket returned by PushFrame. POD; default state means "nothing to
// pop", so holders (obs::Span) pay one branch when profiling is off.
struct FrameToken {
  const char* name = nullptr;
  std::uint64_t gen = 0;
  std::uint32_t idx = 0;
  FrameKind kind = FrameKind::kNode;
  bool pushed = false;
};

inline FrameToken PushFrame(obs::Name name, FrameKind kind) {
  FrameToken t;
  if (!internal::Active()) return t;
  if (name.empty()) return t;  // unattached NodeObs
  internal::ContextStack& c = internal::g_ctx;
  const std::uint32_t d = c.depth.load(std::memory_order_relaxed);
  if (d >= internal::kMaxDepth) {
    ++c.truncated;
    return t;
  }
  c.frames[d] = Frame{name.c_str(), kind};
  std::atomic_signal_fence(std::memory_order_release);
  c.depth.store(d + 1, std::memory_order_relaxed);
  t.name = name.c_str();
  t.gen = c.generation;
  t.idx = d;
  t.kind = kind;
  t.pushed = true;
  return t;
}

inline void PopFrame(FrameToken& t) {
  if (!t.pushed) return;
  t.pushed = false;
  if (!internal::Active()) return;  // Stop() already reset the stack
  internal::ContextStack& c = internal::g_ctx;
  const std::uint32_t d = c.depth.load(std::memory_order_relaxed);
  if (t.gen == c.generation) {
    // Same burst: the recorded index is live. Truncating (rather than
    // decrementing) also unwinds any frames leaked above by callees.
    if (t.idx < d) c.depth.store(t.idx, std::memory_order_relaxed);
    return;
  }
  // The scope outlived a suspension; its index belongs to a previous burst.
  // The restored stack holds a *copy* of the frame — truncate at the
  // innermost match above the floor, or leave the stack alone (the burst
  // guard rewinds it anyway).
  for (std::uint32_t i = d; i > c.floor; --i) {
    const Frame& f = c.frames[i - 1];
    if (f.kind == t.kind &&
        (f.name == t.name || std::strcmp(f.name, t.name) == 0)) {
      c.depth.store(i - 1, std::memory_order_relaxed);
      return;
    }
  }
}

// RAII frame. Construction cost is one branch while profiling is off.
class ProfScope {
 public:
  ProfScope(obs::Name name, FrameKind kind)
      : token_(PushFrame(name, kind)) {}
  ~ProfScope() { PopFrame(token_); }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  FrameToken token_;
};

// --- scheduler hooks ------------------------------------------------------
// Constructed by the simulator only while profiling is active (the callers
// keep the disabled path to its one branch).

// Brackets one dispatch burst: saves depth/floor, optionally pushes an
// "engine.callback" frame, rematerializes (and frees) the resume's captured
// snapshot above a fresh floor, and runs the per-dispatch sampling tick.
class ResumeGuard {
 public:
  ResumeGuard(Snapshot* ctx, bool callback);
  ~ResumeGuard();

  ResumeGuard(const ResumeGuard&) = delete;
  ResumeGuard& operator=(const ResumeGuard&) = delete;

 private:
  std::uint32_t saved_depth_ = 0;
  std::uint32_t saved_floor_ = 0;
  bool active_ = false;
};

// Brackets Simulation::Spawn's inline first run of a detached coroutine: the
// spawned body inherits the spawner's visible stack (causal attribution),
// but frames it leaves behind at its first suspension are rewound.
class SpawnGuard {
 public:
  SpawnGuard();
  ~SpawnGuard();

  SpawnGuard(const SpawnGuard&) = delete;
  SpawnGuard& operator=(const SpawnGuard&) = delete;

 private:
  std::uint32_t saved_depth_ = 0;
  std::uint32_t saved_floor_ = 0;
};

// --- profiler control -----------------------------------------------------

struct Options {
  enum class Mode { kSignal, kCount };
  Mode mode = Mode::kSignal;
  int hz = 97;                     // kSignal: samples/sec (prime, off-beat)
  std::uint64_t every = 64;        // kCount: fold every Nth dispatch
  std::uint32_t ring_slots = 4096; // kSignal: ring capacity (pow2-rounded)
};

struct Stats {
  std::uint64_t samples = 0;     // folded into the trie
  std::uint64_t dropped = 0;     // ring-full signal samples
  std::uint64_t truncated = 0;   // frame pushes beyond kMaxDepth
  std::uint64_t dispatches = 0;  // sampling ticks observed while active
  std::uint64_t signals = 0;     // SIGPROF deliveries
};

// Starts sampling into the (process-global) profile. False + `*error` on bad
// options, unavailable platform timer, or when already running.
bool Start(const Options& opts, std::string* error);
// Disarms the timer, drains the ring, resets the context stack. Idempotent.
// Accumulated trie/stats survive until Reset() so exports happen after Stop.
void Stop();
bool Running();
// Clears the accumulated trie and counters; requires a stopped profiler.
void Reset();
Stats GetStats();

// Drains any signal-ring backlog into the trie (also called on a tick
// watermark and by Stop); off-signal, may allocate.
void DrainRing();

// Folded-stack export, flamegraph.pl-compatible: one `a;b;c N` line per
// stack with samples, sorted by path — byte-deterministic for a given trie.
std::string ExportFolded();
// JSON digest: totals plus per-frame self/total sample counts.
std::string ExportDigestJson();

// Stable storage for dynamic frame names (node names built at testbed
// construction). Interned pointers live for the process lifetime, so they
// satisfy the signal-safety rule; repeated calls return the same pointer.
obs::Name InternName(const std::string& name);

namespace internal {
// Per-dispatch sampling tick (count-mode fold / ring drain watermark).
// Out-of-line; only called while active.
void DispatchTick();
}  // namespace internal

}  // namespace dufs::prof
