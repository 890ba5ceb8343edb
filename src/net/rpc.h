// RPC on top of the simulated network.
//
// One RpcEndpoint per node. Services register coroutine handlers keyed by a
// 16-bit method id; clients issue Call() and receive Result<Payload> — a
// kTimeout/kUnavailable Status when the peer is down or partitioned.
// rpc_id 0 marks one-way notifications (no response is generated).
//
// A call waits in its own frame (sim::TimedWaiters): it allocates nothing
// and schedules no timer of its own. Its deadline joins the endpoint's FIFO
// for that timeout value, whose one timer fires for the oldest live call, so
// an answered call leaves no event behind and a late reply is dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "net/network.h"
#include "sim/task.h"
#include "sim/timed_waiters.h"

namespace dufs::net {

using Payload = std::vector<std::uint8_t>;
using RpcResult = Result<Payload>;

class RpcEndpoint {
 public:
  // Coroutine invoked per inbound request. The handler models its own CPU /
  // disk time via the owning Node.
  using Handler =
      std::function<sim::Task<RpcResult>(NodeId from, Payload request)>;

  RpcEndpoint(Network& net, NodeId self);

  NodeId self() const { return self_; }
  Network& network() { return net_; }
  Node& node() { return net_.node(self_); }
  sim::Simulation& sim() { return net_.sim(); }

  void RegisterHandler(std::uint16_t method, Handler handler);
  bool HasHandler(std::uint16_t method) const {
    return handlers_.count(method) > 0;
  }

  // Request/response with a deadline. Fails fast with kNotConnected if this
  // node is down.
  sim::Task<RpcResult> Call(NodeId dst, std::uint16_t method, Payload request,
                            sim::Duration timeout = sim::Sec(4));

  // Fire-and-forget notification (ZAB COMMIT, heartbeats).
  void Notify(NodeId dst, std::uint16_t method, Payload request);

  std::uint64_t calls_sent() const { return calls_sent_; }
  std::uint64_t calls_handled() const { return calls_handled_; }

 private:
  void OnMessage(Message msg);
  sim::Task<void> RunHandler(Handler* handler, Message msg,
                             std::uint64_t incarnation);

  Network& net_;
  NodeId self_;
  std::uint64_t calls_sent_ = 0;
  std::uint64_t calls_handled_ = 0;
  sim::TimedWaiters<RpcResult> pending_;  // keyed by rpc_id
  std::map<std::uint16_t, Handler> handlers_;
};

}  // namespace dufs::net
