// A zxid-ordered table for one server's replication state (the leader's
// proposals, the proposed txns, the committed-but-not-applied zxids, the
// replies and the waiters of the writes it serves).
//
// Elements sit sorted by their `zxid` member in one vector read from a
// moving head. Writes arrive in zxid order and leave from the front, so the
// common insert is a push_back and the common erase moves the head: neither
// allocates once the vector has grown to the number in flight, where a
// std::map or std::set allocates a node per write.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.h"
#include "zk/znode.h"

namespace dufs::zk {

template <typename T>
class ZxidQueue {
 public:
  using iterator = typename std::vector<T>::iterator;

  bool empty() const { return head_ == items_.size(); }
  iterator begin() { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  iterator end() { return items_.end(); }
  T& front() {
    DUFS_CHECK(!empty());
    return items_[head_];
  }

  // The first element whose zxid is not below `zxid`.
  iterator lower_bound(Zxid zxid) {
    if (empty() || items_.back().zxid < zxid) return end();
    return std::partition_point(
        begin(), end(), [zxid](const T& e) { return e.zxid < zxid; });
  }
  iterator find(Zxid zxid) {
    const auto it = lower_bound(zxid);
    return it != end() && it->zxid == zxid ? it : end();
  }
  bool contains(Zxid zxid) { return find(zxid) != end(); }

  // Inserts in zxid order; an element with the same zxid stays as it is.
  void insert(T item) {
    if (empty() || items_.back().zxid < item.zxid) {
      items_.push_back(std::move(item));
      return;
    }
    const auto it = lower_bound(item.zxid);
    if (it->zxid != item.zxid) items_.insert(it, std::move(item));
  }

  // Inserts after every element with the same zxid, so equal zxids keep
  // their insertion order (a multiset).
  void insert_multi(T item) {
    if (empty() || !(item.zxid < items_.back().zxid)) {
      items_.push_back(std::move(item));
      return;
    }
    const auto it = std::partition_point(
        begin(), end(), [&item](const T& e) { return !(item.zxid < e.zxid); });
    items_.insert(it, std::move(item));
  }

  void pop_front() {
    DUFS_CHECK(!empty());
    items_[head_++] = T();  // releases what it holds now
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      // Each element moves at most once per time the head passes half the
      // vector, so popping stays O(1) amortized.
      items_.erase(items_.begin(), begin());
      head_ = 0;
    }
  }

  void erase(iterator it) {
    if (it == begin()) {
      pop_front();
    } else {
      items_.erase(it);
    }
  }

  template <typename Pred>
  void erase_if(Pred pred) {
    items_.erase(std::remove_if(begin(), end(), pred), end());
    if (empty()) clear();
  }

  // Keeps the vector's capacity.
  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kCompactAt = 32;

  std::vector<T> items_;
  std::size_t head_ = 0;  // items_[0, head_) are popped
};

}  // namespace dufs::zk
