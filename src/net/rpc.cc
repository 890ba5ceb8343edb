#include "net/rpc.h"

#include <utility>

namespace dufs::net {

RpcEndpoint::RpcEndpoint(Network& net, NodeId self)
    : net_(net),
      self_(self),
      pending_(net.sim(),
               Status(StatusCode::kTimeout, "rpc deadline exceeded")) {
  net_.node(self_).SetSink([this](Message msg) { OnMessage(std::move(msg)); });
}

void RpcEndpoint::RegisterHandler(std::uint16_t method, Handler handler) {
  DUFS_CHECK(handlers_.emplace(method, std::move(handler)).second);
}

sim::Task<RpcResult> RpcEndpoint::Call(NodeId dst, std::uint16_t method,
                                       Payload request,
                                       sim::Duration timeout) {
  if (!node().up()) {
    co_return Status(StatusCode::kNotConnected, "local node is down");
  }
  ++calls_sent_;
  auto reply = pending_.Add(timeout);

  Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.rpc_id = reply.id();
  msg.method = method;
  msg.payload = std::move(request);
  net_.Send(std::move(msg));
  co_return co_await reply;
}

void RpcEndpoint::Notify(NodeId dst, std::uint16_t method, Payload request) {
  if (!node().up()) return;
  Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.rpc_id = 0;  // one-way
  msg.method = method;
  msg.payload = std::move(request);
  net_.Send(std::move(msg));
}

void RpcEndpoint::OnMessage(Message msg) {
  if (msg.is_response) {
    // False when the call already timed out: the reply is dropped.
    (void)pending_.Complete(msg.rpc_id, std::move(msg.payload));
    return;
  }

  auto it = handlers_.find(msg.method);
  if (it == handlers_.end()) {
    if (msg.rpc_id != 0) {
      // No such service: reply with an empty error frame is not expressible
      // at this layer (payload-only responses), so we simply drop and let
      // the caller time out — mirroring a connection refused + retry.
      DUFS_LOG(Warn) << node().name() << ": no handler for method "
                     << msg.method;
    }
    return;
  }
  ++calls_handled_;
  sim::CurrentSimulationScope scope(&sim());
  sim().Spawn(RunHandler(&it->second, std::move(msg), node().incarnation()));
}

sim::Task<void> RpcEndpoint::RunHandler(Handler* handler, Message msg,
                                        std::uint64_t incarnation) {
  RpcResult result = co_await (*handler)(msg.src, std::move(msg.payload));
  if (msg.rpc_id == 0) co_return;  // one-way
  // A handler that raced a crash/restart must not leak a reply from the
  // previous incarnation.
  if (!node().up() || node().incarnation() != incarnation) co_return;
  if (!result.ok()) {
    // Errors travel as dropped replies (callers time out). Services that
    // need typed errors encode them in their own response payloads; a
    // Status here means the service itself failed abnormally.
    DUFS_LOG(Debug) << node().name() << ": handler error "
                    << result.status().ToString();
    co_return;
  }
  Message reply;
  reply.src = self_;
  reply.dst = msg.src;
  reply.rpc_id = msg.rpc_id;
  reply.is_response = true;
  reply.payload = std::move(result).value();
  net_.Send(std::move(reply));
}

}  // namespace dufs::net
