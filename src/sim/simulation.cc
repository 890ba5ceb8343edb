#include "sim/simulation.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/audit.h"

namespace dufs::sim {

using internal::EventNode;

namespace {
thread_local Simulation* g_current = nullptr;

// Log-prefix clock: the current simulation's now(), or -1 outside any
// simulation (the logger omits the prefix then).
std::int64_t SimLogClock() {
  Simulation* sim = Simulation::Current();
  return sim != nullptr ? static_cast<std::int64_t>(sim->now()) : -1;
}

}  // namespace

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {
  // Idempotent: every simulation installs the same function pointer.
  SetLogClock(&SimLogClock);
}

Simulation::~Simulation() { Shutdown(); }

Simulation* Simulation::Current() { return g_current; }

CurrentSimulationScope::CurrentSimulationScope(Simulation* sim)
    : saved_(g_current) {
  g_current = sim;
}

CurrentSimulationScope::~CurrentSimulationScope() { g_current = saved_; }

void Simulation::Append(EventList& list, EventNode* n) {
  n->next = nullptr;
  if (list.tail != nullptr) {
    list.tail->next = n;
  } else {
    list.head = n;
  }
  list.tail = n;
}

// Places a node less than the wheel span past the cursor. Level = position
// of the highest bit where `at` differs from the cursor (level 0 if it is
// within the low 12 bits), capped at the top level, which takes every node
// past the cursor's 2^36 block (the ring, see PopNextBefore); slot = that
// level's digit of the absolute time. Same-time nodes always map to the
// same slot and are appended, so FIFO-per-timestamp holds by construction.
void Simulation::PlaceInWheel(EventNode* n) {
  const auto x =
      static_cast<std::uint64_t>(n->at) ^ static_cast<std::uint64_t>(cursor_);
  if (x < kL0Slots) {
    const int slot = static_cast<int>(n->at & (kL0Slots - 1));
    Append(l0_[slot], n);
    l0_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    l0_summary_ |= std::uint64_t{1} << (slot >> 6);
    return;
  }
  const int level =
      std::min((static_cast<int>(std::bit_width(x)) - kL0Bits - 1) / kSlotBits,
               kTopLevel);
  const int slot = static_cast<int>(
      (n->at >> (kL0Bits + kSlotBits * level)) & (kSlots - 1));
  Append(upper_[level][slot], n);
  occupied_[level] |= std::uint64_t{1} << slot;
}

void Simulation::InsertNode(EventNode* n) {
  ++pending_;
  if (n->at < cursor_) {
    // Run(until) can park the cursor ahead of now(); anything scheduled in
    // the gap waits in the sorted early map, drained before the wheel.
    Append(early_[n->at], n);
    return;
  }
  if (n->at - cursor_ >= kWheelSpan) {
    Append(overflow_[n->at], n);
    return;
  }
  PlaceInWheel(n);
}

EventNode* Simulation::PopNextBefore(SimTime until) {
  // Early map first: every entry there is strictly before every wheel or
  // overflow entry (its time is < cursor_, the wheel's lower bound).
  if (!early_.empty()) {
    auto it = early_.begin();
    if (it->first > until) return nullptr;
    EventList& list = it->second;
    EventNode* n = list.head;
    list.head = n->next;
    if (list.head == nullptr) early_.erase(it);
    --pending_;
    return n;
  }
  for (;;) {
    // Level 0: the slot at the cursor may still hold events (>= cursor_).
    // Two-level bitmap: mask the cursor's word, then jump via the summary.
    const int cur0 = static_cast<int>(cursor_ & (kL0Slots - 1));
    int word = cur0 >> 6;
    std::uint64_t bits = l0_bits_[word] & (~std::uint64_t{0} << (cur0 & 63));
    if (bits == 0) {
      const std::uint64_t later =
          l0_summary_ &
          (word == kL0Words - 1 ? 0 : ~std::uint64_t{0} << (word + 1));
      if (later != 0) {
        word = std::countr_zero(later);
        bits = l0_bits_[word];
      }
    }
    if (bits != 0) {
      const int slot = (word << 6) | std::countr_zero(bits);
      EventList& list = l0_[slot];
      if (list.head->at > until) return nullptr;  // left in place
      cursor_ = (cursor_ & ~SimTime(kL0Slots - 1)) | slot;
      EventNode* n = list.head;
      list.head = n->next;
      if (list.head == nullptr) {
        list.tail = nullptr;
        l0_bits_[word] &= ~(std::uint64_t{1} << (slot & 63));
        if (l0_bits_[word] == 0) l0_summary_ &= ~(std::uint64_t{1} << word);
      }
      --pending_;
      return n;
    }
    // Upper levels: strictly-later slots only (the cursor slot at each upper
    // level was already cascaded when the cursor entered it).
    bool cascaded = false;
    for (int level = 0; level < kUpperLevels; ++level) {
      const int shift = kL0Bits + kSlotBits * level;
      const int cur = static_cast<int>((cursor_ >> shift) & (kSlots - 1));
      int slot;
      SimTime window;  // the start of the slot's time range
      if (level < kTopLevel) {
        const std::uint64_t mask =
            cur == kSlots - 1 ? 0 : ~std::uint64_t{0} << (cur + 1);
        const std::uint64_t m = occupied_[level] & mask;
        if (m == 0) continue;
        slot = std::countr_zero(m);
        const SimTime low_mask = (SimTime(1) << (shift + kSlotBits)) - 1;
        window = (cursor_ & ~low_mask) | (SimTime(slot) << shift);
      } else {
        // The ring: slots in order from the one after the cursor's, each
        // one block further on; the cursor's own slot, reached last, holds
        // the block 64 blocks on (every node is within the span).
        if (occupied_[level] == 0) continue;
        const int ahead = std::countr_zero(std::rotr(occupied_[level], cur + 1));
        slot = (cur + 1 + ahead) & (kSlots - 1);
        window = ((cursor_ >> shift) + 1 + ahead) << shift;
      }
      // Advance the cursor to the start of that slot's window (lower digits
      // zero), then redistribute its list into lower levels in FIFO order.
      // Every event in the slot is at or after the window start, so a window
      // past the horizon means nothing left to run — without cascading.
      if (window > until) return nullptr;
      cursor_ = window;
      EventList list = upper_[level][slot];
      upper_[level][slot] = EventList{};
      occupied_[level] &= ~(std::uint64_t{1} << slot);
      prof::ProfScope wheel_scope("engine.wheel", prof::FrameKind::kEnginePhase);
      for (EventNode* n = list.head; n != nullptr;) {
        EventNode* next = n->next;
        PlaceInWheel(n);
        n = next;
      }
      cascaded = true;
      break;
    }
    if (cascaded) continue;  // rescan from level 0
    // Wheel empty: promote the overflow block holding the next timer.
    if (overflow_.empty()) return nullptr;
    const SimTime first = overflow_.begin()->first;
    if (first > until) return nullptr;  // skip the reload near a horizon
    cursor_ = first;
    prof::ProfScope wheel_scope("engine.wheel", prof::FrameKind::kEnginePhase);
    while (!overflow_.empty() &&
           overflow_.begin()->first - cursor_ < kWheelSpan) {
      EventList list = overflow_.begin()->second;
      overflow_.erase(overflow_.begin());
      for (EventNode* n = list.head; n != nullptr;) {
        EventNode* next = n->next;
        PlaceInWheel(n);
        n = next;
      }
    }
  }
}

void Simulation::ScheduleHandle(Duration delay, std::coroutine_handle<> h) {
  DUFS_CHECK(delay >= 0);
  DUFS_CHECK(h != nullptr);
  // Double-resume and resume-after-completion are caught here, at schedule
  // time, before the corrupted resume would actually execute.
  audit::HandleScheduled(h.address());
  EventNode* n = NewNode(now_ + delay, h.address());
  n->u.prof_ctx = prof::CaptureContext();
  InsertNode(n);
}

void Simulation::ScheduleHandle(Duration delay, SuspendedHandle s) {
  DUFS_CHECK(delay >= 0);
  DUFS_CHECK(s.h != nullptr);
  audit::HandleScheduled(s.h.address());
  EventNode* n = NewNode(now_ + delay, s.h.address());
  n->u.prof_ctx = s.ctx;
  InsertNode(n);
}

std::uint64_t Simulation::Run(SimTime until) {
  CurrentSimulationScope scope(this);
  std::uint64_t processed = 0;
  while (!stop_requested_) {
    EventNode* n = PopNextBefore(until);
    if (n == nullptr) break;
    if (n->at < now_) audit::ClockRegression(now_, n->at);
    DUFS_CHECK(n->at >= now_);
    now_ = n->at;
    ++processed;
    ++events_processed_;
    if (n->handle != nullptr) {
      void* frame = n->handle;
      prof::Snapshot* prof_ctx = n->u.prof_ctx;
      FreeNode(n);  // recycle before the resume schedules its next event
      audit::HandleResumed(frame);
      if (prof_ctx == nullptr && !prof::internal::Active()) {
        std::coroutine_handle<>::from_address(frame).resume();
      } else {
        prof::ResumeGuard prof_guard(prof_ctx, /*callback=*/false);
        std::coroutine_handle<>::from_address(frame).resume();
      }
    } else {
      struct NodeGuard {
        EventNode* n;
        ~NodeGuard() { FreeNode(n); }
      } guard{n};
      if (!prof::internal::Active()) {
        n->u.fn.InvokeAndDestroy();
      } else {
        prof::ResumeGuard prof_guard(nullptr, /*callback=*/true);
        n->u.fn.InvokeAndDestroy();
      }
    }
  }
  if (!stop_requested_ && now_ < until && until != kSimTimeMax) {
    now_ = until;  // idle forward to the requested horizon
  }
  return processed;
}

void Simulation::DropAll() {
  auto drop_list = [](EventList& list) {
    for (EventNode* n = list.head; n != nullptr;) {
      EventNode* next = n->next;
      audit::EventDroppedAtShutdown(n->handle);
      if (n->handle == nullptr) {
        n->u.fn.DestroyOnly();
      } else {
        prof::FreeSnapshot(n->u.prof_ctx);
      }
      FreeNode(n);
      n = next;
    }
    list = EventList{};
  };
  for (auto& [at, list] : early_) drop_list(list);
  early_.clear();
  for (auto& list : l0_) drop_list(list);
  for (auto& bits : l0_bits_) bits = 0;
  l0_summary_ = 0;
  for (auto& level : upper_) {
    for (auto& list : level) drop_list(list);
  }
  for (auto& bits : occupied_) bits = 0;
  for (auto& [at, list] : overflow_) drop_list(list);
  overflow_.clear();
  pending_ = 0;
}

void Simulation::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  CurrentSimulationScope scope(this);
  // Drop pending events first: the frames they reference are owned either by
  // the detached registry (destroyed below) or by parent frames reachable
  // from it. The audit hook also clears each frame's pending-schedule mark so
  // the detached destruction below is not misreported as
  // destroyed-while-scheduled.
  DropAll();
  // Destroying a frame runs destructors of its locals, which recursively
  // destroys owned child tasks — but never other *detached* frames, so a
  // snapshot of the registry is safe to iterate.
  std::vector<void*> frames;
  frames.reserve(detached_count_);
  for (internal::DetachedNode* node = detached_head_.next; node != nullptr;
       node = node->next) {
    frames.push_back(node->frame);
  }
  detached_head_.next = nullptr;
  detached_count_ = 0;
  for (void* frame : frames) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
  audit::SimTeardown();
  shut_down_ = false;  // allow reuse (tests run several workloads per sim)
}

}  // namespace dufs::sim
