// Deterministic single-threaded discrete-event simulator.
//
// Coroutines (sim::Task<T>) model cluster actors: client processes, RPC
// handlers, replication pipelines. The Simulation owns the event queue and a
// registry of detached (Spawn-ed) coroutine frames so teardown never leaks.
//
// Determinism: one thread, one seeded RNG, events ordered by (time, schedule
// order). The scheduler is a hierarchical timing wheel: a wide level 0 of
// 4096 one-nanosecond slots (so the common sub-4µs delays pop without any
// cascading) under five 64-slot upper levels:
//
//   * A level-k (k >= 1) slot spans 4096·64^(k-1) ns; the whole wheel covers
//     2^42 ns (~73.3 simulated minutes) past the wheel cursor.
//   * Events land in the slot whose time differs from the cursor first at
//     that level's bit group (absolute-time indexing, so no per-tick
//     re-hashing); occupancy bitmaps (a 64-word bitmap plus a one-word
//     summary for level 0, one word per upper level) make "next non-empty
//     slot" a couple of count-trailing-zeros. The top level is a ring: a
//     slot at or behind the cursor's holds the next 2^42 ns block, so an
//     event a microsecond past a block boundary stays in the wheel.
//   * Every slot is a FIFO list. Direct inserts append in schedule order and
//     cascades preserve relative order, so same-timestamp events pop in
//     exactly the (time, seq) order the old priority_queue produced — that
//     equivalence is what keeps metric/trace exports byte-identical
//     (DESIGN.md §10 has the full argument).
//   * Timers more than the wheel span away wait in a sorted overflow map
//     and are promoted wholesale when the wheel drains; events scheduled behind the
//     cursor (possible after Run(until) parked the cursor ahead of now())
//     wait in a sorted "early" map that is always drained first.
//
// Event nodes are 64-byte intrusive cells from the thread-local slab arena
// (arena.h) with a 32-byte inline buffer for ScheduleFn callables — the hot
// path allocates nothing on the global heap.
#pragma once

#include <bit>
#include <coroutine>
#include <cstdint>
#include <map>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.h"
#include "common/rng.h"
#include "obs/prof.h"
#include "sim/arena.h"
#include "sim/time.h"

namespace dufs::sim {

template <typename T>
class Task;

namespace internal {

// Type-erased callable with a 32-byte inline buffer. Unlike std::function,
// construction never heap-allocates for captures that fit inline (every
// ScheduleFn call site in the tree fits), and the invoke/destroy split lets
// Shutdown() destroy a pending callable without running it.
//
// Lifecycle is explicit (trivial destructor): the owner must call
// InvokeAndDestroy() or DestroyOnly() exactly once after Set().
class InlineFn {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  InlineFn() = default;

  template <typename F>
  void Set(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= 8 &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (buf_) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      // Oversize capture: box it. Cold — flagged sites should shrink the
      // capture instead.
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &kBoxedOps<Fn>;
    }
  }

  bool set() const { return ops_ != nullptr; }

  // Destroys the callable even if invocation throws.
  void InvokeAndDestroy() {
    const Ops* ops = std::exchange(ops_, nullptr);
    struct Cleanup {
      const Ops* ops;
      void* buf;
      ~Cleanup() { ops->destroy(buf); }
    } cleanup{ops, buf_};
    ops->invoke(buf_);
  }

  void DestroyOnly() {
    const Ops* ops = std::exchange(ops_, nullptr);
    if (ops != nullptr) ops->destroy(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* b) { (*reinterpret_cast<Fn*>(b))(); },
      [](void* b) { reinterpret_cast<Fn*>(b)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kBoxedOps = {
      [](void* b) { (**reinterpret_cast<Fn**>(b))(); },
      [](void* b) { delete *reinterpret_cast<Fn**>(b); }};

  const Ops* ops_ = nullptr;
  alignas(8) unsigned char buf_[kInlineBytes];
};

// One scheduled event: a coroutine resume (handle != nullptr) or a callback.
// Exactly one slab-arena cell (64 bytes); `next` chains the FIFO slot list.
// The payload is a union — a resume never carries a callable, so its slot
// holds the profiler context captured at schedule time instead (nullptr
// while profiling is off). NewNode activates the right member.
struct EventNode {
  SimTime at;
  EventNode* next;
  void* handle;
  union Payload {
    Payload() {}  // lifetime managed by NewNode / dispatch / DropAll
    InlineFn fn;            // handle == nullptr
    prof::Snapshot* prof_ctx;  // handle != nullptr
  } u;
};
static_assert(sizeof(EventNode) == 64);

// Intrusive node linking a detached coroutine frame into its Simulation's
// registry (embedded in TaskPromiseBase; no allocation per Spawn).
struct DetachedNode {
  DetachedNode* prev = nullptr;
  DetachedNode* next = nullptr;
  void* frame = nullptr;
};

}  // namespace internal

// A suspended coroutine bundled with the profiler context captured at
// await_suspend time. Waiter lists (sync.h Mailbox/Barrier, future.h) store
// these instead of bare handles: their wake-up (Send/Arrive/Set) runs on the
// *waker's* stack, so scheduling there must carry the waiter's own captured
// context, not the current one. The holder owns `ctx` until the handle is
// scheduled (prof::FreeSnapshot it if the waiter is abandoned).
struct SuspendedHandle {
  std::coroutine_handle<> h;
  prof::Snapshot* ctx = nullptr;
};

inline SuspendedHandle CaptureSuspended(std::coroutine_handle<> h) {
  return SuspendedHandle{h, prof::CaptureContext()};
}

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }
  Rng& rng() { return rng_; }

  // The simulation currently constructing/running coroutines. Task promises
  // capture this at creation time.
  static Simulation* Current();

  // --- scheduling ------------------------------------------------------
  // Captures the current profiler context for the resume (await_suspend runs
  // on the suspending coroutine's stack, so "current" is correct here).
  void ScheduleHandle(Duration delay, std::coroutine_handle<> h);
  // Waiter wake-up path: the context was captured at suspension and rides in
  // `s` (ownership transfers to the event node).
  void ScheduleHandle(Duration delay, SuspendedHandle s);

  template <typename F>
  void ScheduleFn(Duration delay, F&& fn) {
    DUFS_CHECK(delay >= 0);
    internal::EventNode* n = NewNode(now_ + delay, nullptr);
    n->u.fn.Set(std::forward<F>(fn));
    InsertNode(n);
  }

  // Starts a detached coroutine now. The frame self-destroys on completion;
  // Shutdown() destroys any still-suspended detached frames.
  void Spawn(Task<void> task);

  // --- running ---------------------------------------------------------
  // Processes events until the queue is empty, `until` is passed, or
  // RequestStop() was called. Returns the number of events processed.
  std::uint64_t Run(SimTime until = kSimTimeMax);
  void RequestStop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }
  void ClearStop() { stop_requested_ = false; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t pending_events() const { return pending_; }
  std::size_t live_detached_tasks() const { return detached_count_; }

  // Destroys all detached frames and drops all pending events. Called by the
  // destructor; call it earlier if simulation actors (servers, resources)
  // are destroyed before the Simulation object.
  void Shutdown();

  // awaitable: co_await sim.Delay(d)
  struct [[nodiscard]] DelayAwaiter {
    Simulation* sim;
    Duration delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->ScheduleHandle(delay, h);
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter Delay(Duration d) { return DelayAwaiter{this, d}; }

  // Internal, used by Task promises.
  void RegisterDetached(internal::DetachedNode* node) {
    node->prev = &detached_head_;
    node->next = detached_head_.next;
    if (node->next != nullptr) node->next->prev = node;
    detached_head_.next = node;
    ++detached_count_;
  }
  void UnregisterDetached(internal::DetachedNode* node) {
    node->prev->next = node->next;
    if (node->next != nullptr) node->next->prev = node->prev;
    node->prev = node->next = nullptr;
    --detached_count_;
  }

 private:
  // --- timing wheel ----------------------------------------------------
  static constexpr int kL0Bits = 12;
  static constexpr int kL0Slots = 1 << kL0Bits;  // 4096 1ns-wide slots
  static constexpr int kL0Words = kL0Slots / 64;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;  // 64 slots per upper level
  static constexpr int kUpperLevels = 5;
  static constexpr int kTopLevel = kUpperLevels - 1;  // the ring
  static constexpr int kWheelBits = kL0Bits + kSlotBits * kUpperLevels;  // 42
  // Span past the cursor: 2^42 ns ≈ 73.3 sim-minutes.
  static constexpr SimTime kWheelSpan = SimTime(1) << kWheelBits;

  struct EventList {
    internal::EventNode* head = nullptr;
    internal::EventNode* tail = nullptr;
  };

  internal::EventNode* NewNode(SimTime at, void* handle) {
    auto* n = static_cast<internal::EventNode*>(
        Arena::ThreadLocal().Allocate(sizeof(internal::EventNode)));
    n->at = at;
    n->next = nullptr;
    n->handle = handle;
    if (handle == nullptr) {
      new (&n->u.fn) internal::InlineFn();
    } else {
      n->u.prof_ctx = nullptr;
    }
    return n;
  }
  static void FreeNode(internal::EventNode* n) {
    Arena::ThreadLocal().Free(n, sizeof(internal::EventNode));
  }
  static void Append(EventList& list, internal::EventNode* n);

  void InsertNode(internal::EventNode* n);
  void PlaceInWheel(internal::EventNode* n);
  // Pops the earliest pending event if its time is <= until; advances the
  // wheel cursor (cascading and promoting overflow as needed).
  internal::EventNode* PopNextBefore(SimTime until);
  void DropAll();  // Shutdown helper: destroy every pending node

  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  bool shut_down_ = false;
  Rng rng_;

  // Lower bound on every wheel-resident event time; only ever advances
  // (Shutdown resets it with now_ semantics preserved — see simulation.cc).
  SimTime cursor_ = 0;
  EventList l0_[kL0Slots];
  std::uint64_t l0_bits_[kL0Words] = {};
  std::uint64_t l0_summary_ = 0;  // bit w set iff l0_bits_[w] != 0
  EventList upper_[kUpperLevels][kSlots];
  std::uint64_t occupied_[kUpperLevels] = {};
  std::size_t pending_ = 0;
  // Cold levels: far-future timers (>= span past cursor) and events behind
  // the cursor. Sorted maps — insertion there is off the hot path.
  std::map<SimTime, EventList> overflow_;
  std::map<SimTime, EventList> early_;

  internal::DetachedNode detached_head_;
  std::size_t detached_count_ = 0;
};

// Scoped "current simulation" setter (used internally and by tests that
// construct tasks outside Run()).
class CurrentSimulationScope {
 public:
  explicit CurrentSimulationScope(Simulation* sim);
  ~CurrentSimulationScope();

 private:
  Simulation* saved_;
};

}  // namespace dufs::sim
