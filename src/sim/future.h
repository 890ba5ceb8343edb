// One-shot Future/Promise pair for cross-actor completion (gathers).
// Single waiter; the first Set() wins and later Sets return false. The
// state is shared and heap-allocated; a wait with a deadline that one actor
// answers (an RPC reply, a ZooKeeper apply) uses timed_waiters.h instead,
// which keeps it in the waiting frame, and a journal hand-off (ZooKeeper's
// and the Lustre MDS's) passes the suspended coroutine itself.
#pragma once

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>

#include "common/log.h"
#include "sim/simulation.h"

namespace dufs::sim {

namespace internal {

template <typename T>
struct FutureState {
  Simulation* sim;
  std::optional<T> value;
  // Captured at await_suspend (Set runs on the fulfiller's stack, which is
  // the wrong profiler context for the waiter).
  SuspendedHandle waiter;

  explicit FutureState(Simulation* s) : sim(s) {}

  ~FutureState() {
    // A waiter abandoned without a Set still owns its captured context (the
    // frame itself is reclaimed by the detached registry at Shutdown).
    prof::FreeSnapshot(waiter.ctx);
  }

  bool Set(T v) {
    if (value.has_value()) return false;  // first writer wins
    value.emplace(std::move(v));
    if (waiter.h) {
      sim->ScheduleHandle(0, std::exchange(waiter, SuspendedHandle{}));
    }
    return true;
  }
};

}  // namespace internal

template <typename T>
class [[nodiscard]] Future {
 public:
  explicit Future(std::shared_ptr<internal::FutureState<T>> st)
      : st_(std::move(st)) {}

  bool ready() const { return st_->value.has_value(); }

  auto operator co_await() && {
    struct Awaiter {
      std::shared_ptr<internal::FutureState<T>> st;
      bool await_ready() const { return st->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        DUFS_CHECK(st->waiter.h == nullptr);  // single waiter
        st->waiter = CaptureSuspended(h);
      }
      T await_resume() {
        DUFS_CHECK(st->value.has_value());
        return std::move(*st->value);
      }
    };
    return Awaiter{std::move(st_)};
  }

 private:
  std::shared_ptr<internal::FutureState<T>> st_;
};

template <typename T>
class Promise {
 public:
  Promise() : st_(nullptr) {}
  explicit Promise(std::shared_ptr<internal::FutureState<T>> st)
      : st_(std::move(st)) {}

  // Returns false if the future was already fulfilled.
  bool Set(T v) const { return st_->Set(std::move(v)); }
  bool fulfilled() const { return st_->value.has_value(); }
  bool valid() const { return st_ != nullptr; }

 private:
  std::shared_ptr<internal::FutureState<T>> st_;
};

template <typename T>
std::pair<Future<T>, Promise<T>> MakeFuture(Simulation& sim) {
  auto st = std::make_shared<internal::FutureState<T>>(&sim);
  return {Future<T>(st), Promise<T>(st)};
}

}  // namespace dufs::sim
