// Small-buffer FIFO for simulator waiter lists, mailboxes and queued starts.
//
// std::deque allocates its map + first block on the first push — one heap
// round trip per Mailbox wait even when at most a handful of waiters ever
// queue. SmallQueue keeps the first N elements in an inline
// ring and only touches the heap when a queue actually grows past N
// (doubling ring thereafter). N must be a power of two.
#pragma once

#include <cstddef>
#include <new>
#include <utility>

#include "common/log.h"

namespace dufs::sim {

template <typename T, std::size_t N>
class SmallQueue {
  static_assert(N > 0 && (N & (N - 1)) == 0, "N must be a power of two");
  static_assert(alignof(T) <= alignof(std::max_align_t));

 public:
  SmallQueue() = default;
  SmallQueue(const SmallQueue&) = delete;
  SmallQueue& operator=(const SmallQueue&) = delete;

  ~SmallQueue() {
    while (size_ > 0) pop_front();
    if (data_ != InlineData()) {
      ::operator delete(static_cast<void*>(data_));
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T v) {
    if (size_ == cap_) Grow();
    new (data_ + ((head_ + size_) & (cap_ - 1))) T(std::move(v));
    ++size_;
  }

  T& front() {
    DUFS_CHECK(size_ > 0);
    return data_[head_];
  }

  // The i-th element from the front.
  T& operator[](std::size_t i) {
    DUFS_CHECK(i < size_);
    return data_[(head_ + i) & (cap_ - 1)];
  }

  void pop_front() {
    DUFS_CHECK(size_ > 0);
    data_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

 private:
  T* InlineData() { return reinterpret_cast<T*>(inline_storage_); }

  void Grow() {
    const std::size_t new_cap = cap_ * 2;
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      T& slot = data_[(head_ + i) & (cap_ - 1)];
      new (fresh + i) T(std::move(slot));
      slot.~T();
    }
    if (data_ != InlineData()) {
      ::operator delete(static_cast<void*>(data_));
    }
    data_ = fresh;
    cap_ = new_cap;
    head_ = 0;
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* data_ = InlineData();
  std::size_t cap_ = N;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dufs::sim
