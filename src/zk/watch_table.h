// One kind of one-shot watch (data or child) registered at one ZooKeeper
// server: znode path -> the (session, client node) pairs to notify.
//
// Layout: a Slab of nodes, one per watched path, found through a PathTable
// keyed by a view of the node's path. Each node keeps its watchers in a
// sorted, deduplicated vector, so a trigger notifies each (session, client)
// exactly once and in ascending order. A freed node keeps its buffers for
// the next newly watched path. DropSession walks the slab in id order;
// nothing here iterates in hash order.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/path_table.h"
#include "common/slab.h"
#include "net/message.h"
#include "zk/znode.h"

namespace dufs::zk {

class WatchTable {
 public:
  struct Watcher {
    SessionId session = 0;
    net::NodeId client = 0;
    auto operator<=>(const Watcher&) const = default;
  };
  using Watchers = std::vector<Watcher>;  // sorted, no duplicates

  // Registers `watcher` on `path`; a no-op when it is already registered.
  void Add(std::string_view path, Watcher watcher);
  // Removes and returns the watchers of `path` (none if it has no watch):
  // watches are one-shot.
  Watchers Take(std::string_view path);
  // Drops every registration of `session`, whose session has closed.
  void DropSession(SessionId session);

 private:
  struct Node {
    std::string path;
    Watchers watchers;  // empty on a free node
  };

  void Free(std::uint32_t id);

  Slab<Node> nodes_;
  PathTable<std::uint32_t> index_;  // path -> node id
};

}  // namespace dufs::zk
