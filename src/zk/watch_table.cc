#include "zk/watch_table.h"

#include <algorithm>

namespace dufs::zk {

void WatchTable::Add(std::string_view path, Watcher watcher) {
  std::uint32_t id;
  if (const std::uint32_t* found = index_.Find(path)) {
    id = *found;
  } else {
    id = nodes_.Allocate();
    nodes_[id].path.assign(path);
    index_.Insert(nodes_[id].path, id);
  }
  Watchers& watchers = nodes_[id].watchers;
  auto it = std::lower_bound(watchers.begin(), watchers.end(), watcher);
  if (it == watchers.end() || *it != watcher) watchers.insert(it, watcher);
}

WatchTable::Watchers WatchTable::Take(std::string_view path) {
  const std::uint32_t* found = index_.Find(path);
  if (found == nullptr) return {};
  const std::uint32_t id = *found;
  Watchers watchers = std::move(nodes_[id].watchers);
  nodes_[id].watchers.clear();  // a free node must hold no watchers
  Free(id);
  return watchers;
}

void WatchTable::DropSession(SessionId session) {
  for (std::uint32_t id = 0; id < nodes_.id_limit(); ++id) {
    Watchers& watchers = nodes_[id].watchers;
    const auto dropped = std::erase_if(
        watchers, [session](const Watcher& w) { return w.session == session; });
    if (dropped > 0 && watchers.empty()) Free(id);
  }
}

void WatchTable::Free(std::uint32_t id) {
  index_.Erase(nodes_[id].path);
  nodes_.Free(id);
}

}  // namespace dufs::zk
