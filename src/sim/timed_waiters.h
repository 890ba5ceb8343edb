// Waits with a deadline, for request/response rendezvous: RPC calls waiting
// for their reply, ZooKeeper writes waiting for their local apply.
//
// A wait is a TimedWaiters<T>::Waiter in the waiting coroutine's own frame.
// It holds the suspended handle and the result slot; the table holds only a
// pointer to it, so a wait allocates nothing. Ids are issued in order, so
// the table is a ring indexed by `id - first`, and answered slots leave
// from its front.
//
// Deadlines sit in one FIFO per distinct timeout. Within a FIFO they never
// decrease, so one ScheduleFn armed for its oldest live entry serves all of
// them: when it fires it expires every entry whose deadline has passed,
// skips the answered ones and re-arms for the next. Nearly every deadline is
// stopped by its answer (Varghese & Lauck, "Hashed and Hierarchical Timing
// Wheels", SOSP 1987); stopping one here clears its slot and leaves no event
// behind. A deadline still fires at exactly the simulated time a timer of
// its own would have.
//
// Lifetimes. A Waiter destroyed while it waits (Simulation::Shutdown tears
// down its frame) clears its slot. A table destroyed first detaches its
// live waiters. The timer shares the table's state, and a timer that
// Shutdown drops unrun marks its FIFO unarmed, so a simulation reused after
// Shutdown arms afresh.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "common/log.h"
#include "sim/simulation.h"
#include "sim/small_queue.h"

namespace dufs::sim {

template <typename T>
class TimedWaiters {
  struct State;

 public:
  // Awaitable; lives in the waiting frame from Add() until it resumes.
  class [[nodiscard]] Waiter {
   public:
    Waiter(const Waiter&) = delete;
    Waiter& operator=(const Waiter&) = delete;

    ~Waiter() {
      if (result_.has_value()) return;
      // Torn down while waiting: no event took over the captured context.
      prof::FreeSnapshot(handle_.ctx);
      if (state_ != nullptr) (void)state_->Take(id_);
    }

    std::uint64_t id() const { return id_; }

    bool await_ready() const noexcept { return result_.has_value(); }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = CaptureSuspended(h);
    }
    T await_resume() {
      DUFS_CHECK(result_.has_value());
      return std::move(*result_);
    }

   private:
    friend class TimedWaiters;
    friend struct TimedWaiters::State;

    Waiter(State* state, Duration timeout) : state_(state) {
      state->Register(this, timeout);
    }

    void Resolve(Simulation& sim, T value) {
      result_.emplace(std::move(value));
      if (handle_.h) {
        sim.ScheduleHandle(0, std::exchange(handle_, SuspendedHandle{}));
      }
    }

    State* state_;  // nullptr once the table is gone
    std::uint64_t id_ = 0;
    std::size_t fifo_ = 0;
    SuspendedHandle handle_;  // owned until scheduled
    std::optional<T> result_;
  };

  // `expired` is what a waiter receives when its deadline passes first.
  TimedWaiters(Simulation& sim, T expired)
      : state_(std::make_shared<State>(sim, std::move(expired))) {}
  ~TimedWaiters() { state_->Detach(); }

  TimedWaiters(const TimedWaiters&) = delete;
  TimedWaiters& operator=(const TimedWaiters&) = delete;

  // A new waiter with the next id. It is live from here until Complete()
  // reaches it or `timeout` passes.
  Waiter Add(Duration timeout) { return Waiter(state_.get(), timeout); }

  // Hands `value` to waiter `id` and wakes it. False if the waiter has
  // already expired or gone.
  bool Complete(std::uint64_t id, T value) {
    Waiter* w = state_->Take(id);
    if (w == nullptr) return false;
    w->Resolve(*state_->sim, std::move(value));
    return true;
  }

 private:
  struct Entry {
    SimTime deadline;
    std::uint64_t id;
  };
  struct Fifo {
    explicit Fifo(Duration t) : timeout(t) {}
    Duration timeout;
    bool armed = false;
    SmallQueue<Entry, 4> entries;  // deadline order = id order
  };

  // The FIFO's one timer. Moved into the event node; the moved-from and the
  // invoked copy hold nothing.
  struct Timer {
    std::shared_ptr<State> state;
    std::size_t fifo;

    Timer(std::shared_ptr<State> s, std::size_t f) noexcept
        : state(std::move(s)), fifo(f) {}
    Timer(Timer&& o) noexcept : state(std::move(o.state)), fifo(o.fifo) {}
    // Dropped unrun by Simulation::Shutdown: nothing is armed any more.
    ~Timer() {
      if (state != nullptr) state->fifos[fifo].armed = false;
    }
    void operator()() {
      const std::shared_ptr<State> s = std::move(state);
      s->Expire(fifo);
    }
  };

  struct State : std::enable_shared_from_this<State> {
    State(Simulation& s, T e) : sim(&s), expired(std::move(e)) {}

    Simulation* sim;
    T expired;
    std::uint64_t first = 1;  // id of slots[0]; 0 is never issued
    SmallQueue<Waiter*, 8> slots;  // nullptr: answered, expired or gone
    std::deque<Fifo> fifos;

    Waiter* Live(std::uint64_t id) {
      if (id < first || id - first >= slots.size()) return nullptr;
      return slots[id - first];
    }

    void Register(Waiter* w, Duration timeout) {
      DUFS_CHECK(timeout >= 0);
      w->id_ = first + slots.size();
      slots.push_back(w);
      w->fifo_ = FifoFor(timeout);
      Fifo& f = fifos[w->fifo_];
      f.entries.push_back({sim->now() + timeout, w->id_});
      if (!f.armed) Arm(w->fifo_);
    }

    // Clears id's slot and drops what that leaves dead at the front of the
    // ring and of its FIFO. Returns its waiter, or nullptr if it was not
    // live.
    Waiter* Take(std::uint64_t id) {
      Waiter* w = Live(id);
      if (w == nullptr) return nullptr;
      slots[id - first] = nullptr;
      while (!slots.empty() && slots.front() == nullptr) {
        slots.pop_front();
        ++first;
      }
      TrimFifo(w->fifo_);
      return w;
    }

    // Drops the FIFO's dead head, so it holds entries from its oldest live
    // one on.
    void TrimFifo(std::size_t i) {
      auto& entries = fifos[i].entries;
      while (!entries.empty() && Live(entries.front().id) == nullptr) {
        entries.pop_front();
      }
    }

    std::size_t FifoFor(Duration timeout) {
      for (std::size_t i = 0; i < fifos.size(); ++i) {
        if (fifos[i].timeout == timeout) return i;
      }
      fifos.emplace_back(timeout);
      return fifos.size() - 1;
    }

    void Arm(std::size_t i) {
      TrimFifo(i);  // after a Shutdown, entries of the frames it tore down
      Fifo& f = fifos[i];
      if (f.entries.empty()) return;
      f.armed = true;
      sim->ScheduleFn(
          std::max<Duration>(0, f.entries.front().deadline - sim->now()),
          Timer(this->shared_from_this(), i));
    }

    void Expire(std::size_t i) {
      Fifo& f = fifos[i];
      f.armed = false;
      while (!f.entries.empty()) {
        const Entry e = f.entries.front();
        Waiter* w = Live(e.id);
        if (w != nullptr && e.deadline > sim->now()) break;
        f.entries.pop_front();
        if (w != nullptr) {
          (void)Take(e.id);
          w->Resolve(*sim, T(expired));
        }
      }
      Arm(i);
    }

    // The owner is going: live waiters keep waiting, unattached.
    void Detach() {
      while (!slots.empty()) {
        if (slots.front() != nullptr) slots.front()->state_ = nullptr;
        slots.pop_front();
        ++first;
      }
      for (Fifo& f : fifos) {
        while (!f.entries.empty()) f.entries.pop_front();
      }
    }
  };

  std::shared_ptr<State> state_;
};

}  // namespace dufs::sim
