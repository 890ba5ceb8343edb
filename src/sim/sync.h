// Queueing and synchronization for simulated actors:
//   FifoServer — a FIFO queue in front of `capacity` identical servers whose
//                service time is known when a job joins (CPU cores,
//                pipelines, disks, NIC directions).
//   Mailbox    — unbounded MPSC queue with an awaitable receive (server loops).
//   Barrier    — reusable N-party barrier (mdtest phase synchronization).
//
// Mailbox and Barrier keep their state behind shared_ptr so late-destroyed
// coroutine frames never touch freed memory. Waiter lists and mailbox items
// live in SmallQueue rings: short queues (the common case) never allocate.
#pragma once

#include <algorithm>
#include <coroutine>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.h"
#include "sim/simulation.h"
#include "sim/small_queue.h"

namespace dufs::sim {

// A job's start is fixed when it joins: max(now, the earliest-free server).
// So the queue needs no waiter list and no wake-up, and a job costs one
// event, its departure. FIFO order holds because starts never decrease in
// join order.
class FifoServer {
 public:
  FifoServer(Simulation& sim, std::size_t capacity)
      : sim_(&sim), free_at_(capacity, 0) {
    DUFS_CHECK(capacity > 0);
  }

  // Joins a job that needs `service` ns once it starts; returns its start.
  SimTime Join(Duration service) {
    const SimTime now = sim_->now();
    SimTime& slot = *std::min_element(free_at_.begin(), free_at_.end());
    const SimTime start = std::max(now, slot);
    slot = start + service;
    DropStarted();
    if (start > now) waiting_.push_back(start);
    return start;
  }

  // Joins at the call and resumes the awaiting coroutine at the job's
  // departure.
  Simulation::DelayAwaiter Serve(Duration service) {
    return sim_->Delay(Join(service) + service - sim_->now());
  }

  // Jobs that have joined but not started.
  std::size_t queue_length() {
    DropStarted();
    return waiting_.size();
  }

 private:
  void DropStarted() {
    while (!waiting_.empty() && waiting_.front() <= sim_->now()) {
      waiting_.pop_front();
    }
  }

  Simulation* sim_;
  std::vector<SimTime> free_at_;  // one per server: when it is next free
  SmallQueue<SimTime, 4> waiting_;  // starts not yet reached, ascending
};

template <typename T>
class Mailbox {
  struct State {
    Simulation* sim = nullptr;
    SmallQueue<T, 8> items;
    SmallQueue<SuspendedHandle, 4> waiters;
    bool closed = false;

    ~State() {
      while (!waiters.empty()) {
        prof::FreeSnapshot(waiters.front().ctx);
        waiters.pop_front();
      }
    }
  };

 public:
  explicit Mailbox(Simulation& sim) : st_(std::make_shared<State>()) {
    st_->sim = &sim;
  }

  void Send(T item) {
    if (st_->closed) return;  // dropped, like a message to a dead process
    st_->items.push_back(std::move(item));
    WakeOne();
  }

  // Receivers see nullopt once the mailbox is closed and drained.
  void Close() {
    st_->closed = true;
    while (!st_->waiters.empty()) {
      SuspendedHandle w = st_->waiters.front();
      st_->waiters.pop_front();
      st_->sim->ScheduleHandle(0, w);
    }
  }

  auto Recv() {
    struct Awaiter {
      std::shared_ptr<State> st;
      bool await_ready() const { return !st->items.empty() || st->closed; }
      void await_suspend(std::coroutine_handle<> h) {
        st->waiters.push_back(CaptureSuspended(h));
      }
      std::optional<T> await_resume() {
        if (st->items.empty()) return std::nullopt;  // closed
        T item = std::move(st->items.front());
        st->items.pop_front();
        return item;
      }
    };
    return Awaiter{st_};
  }

  std::size_t size() const { return st_->items.size(); }
  bool closed() const { return st_->closed; }

 private:
  void WakeOne() {
    if (!st_->waiters.empty()) {
      SuspendedHandle w = st_->waiters.front();
      st_->waiters.pop_front();
      st_->sim->ScheduleHandle(0, w);
    }
  }

  std::shared_ptr<State> st_;
};

class Barrier {
  struct State {
    Simulation* sim = nullptr;
    std::size_t parties = 0;
    std::size_t arrived = 0;
    std::uint64_t generation = 0;
    SmallQueue<SuspendedHandle, 8> waiters;

    ~State() {
      while (!waiters.empty()) {
        prof::FreeSnapshot(waiters.front().ctx);
        waiters.pop_front();
      }
    }
  };

 public:
  Barrier(Simulation& sim, std::size_t parties)
      : st_(std::make_shared<State>()) {
    DUFS_CHECK(parties > 0);
    st_->sim = &sim;
    st_->parties = parties;
  }

  auto Arrive() {
    struct Awaiter {
      std::shared_ptr<State> st;
      bool await_ready() {
        if (st->arrived + 1 == st->parties) {
          // Last arriver releases everyone and does not suspend.
          st->arrived = 0;
          ++st->generation;
          while (!st->waiters.empty()) {
            st->sim->ScheduleHandle(0, st->waiters.front());
            st->waiters.pop_front();
          }
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++st->arrived;
        st->waiters.push_back(CaptureSuspended(h));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{st_};
  }

  std::size_t parties() const { return st_->parties; }

 private:
  std::shared_ptr<State> st_;
};

}  // namespace dufs::sim
