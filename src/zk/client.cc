#include "zk/client.h"

#include <utility>

namespace dufs::zk {
namespace {

// Process-wide monotone counter keeps session ids unique across all clients
// in a simulation (the high 32 bits carry the node id for debuggability).
std::uint64_t NextSessionNumber() {
  static std::uint64_t counter = 0;
  return ++counter;
}

}  // namespace

ZkClient::ZkClient(net::RpcEndpoint& endpoint, ZkClientConfig config)
    : endpoint_(endpoint), config_(std::move(config)) {
  DUFS_CHECK(!config_.servers.empty());
  current_server_ = config_.attach_index % config_.servers.size();
  session_ = (static_cast<std::uint64_t>(endpoint_.self()) << 32) |
             (NextSessionNumber() & 0xffffffffu);
}

void ZkClient::AttachObs(obs::NodeObs node_obs) {
  obs_ = node_obs;
  c_requests_ = obs_.counter("zk.requests");
  c_failovers_ = obs_.counter("zk.failovers");
  t_rpc_ = obs_.timer("zk.rpc_ns");
}

void ZkClient::SetWatchHandler(WatchCallback cb) {
  watch_cb_ = std::move(cb);
  if (!endpoint_.HasHandler(method::kWatchEvent)) {
    // Stored in the endpoint's handler map; `this` outlives every call.
    endpoint_.RegisterHandler(
        method::kWatchEvent,
        [this](net::NodeId, net::Payload bytes) -> sim::Task<net::RpcResult> {
          auto ev = WatchEvent::Decode(bytes);
          if (ev.ok() && watch_cb_) watch_cb_(*ev);
          co_return net::Payload{};
        });
  }
}

void ZkClient::StartHeartbeats(sim::Duration interval) {
  sim::CurrentSimulationScope scope(&endpoint_.sim());
  const std::uint64_t incarnation = endpoint_.node().incarnation();
  endpoint_.sim().Spawn([](ZkClient& self, sim::Duration iv,
                           std::uint64_t inc) -> sim::Task<void> {
    while (self.endpoint_.node().incarnation() == inc &&
           self.endpoint_.node().up()) {
      wire::BufferWriter w;
      w.WriteU64(self.session_);
      self.endpoint_.Notify(
          self.config_.servers[self.current_server_],
          method::kSessionPing, w.Take());
      co_await self.endpoint_.sim().Delay(iv);
    }
  }(*this, interval, incarnation));
}

template <typename Reply>
sim::Task<Result<Reply>> ZkClient::Execute(Op op, std::vector<Op> multi_ops) {
  ClientRequest req;
  req.session = session_;
  req.op = std::move(op);
  req.multi_ops = std::move(multi_ops);
  // Span before Encode: the trace id travels inside the request frame.
  obs::Span span(obs_, "zk-rpc", "zk");
  span.ArgStr("op", OpTypeName(req.op.type));
  req.trace = span.trace();
  const auto payload = req.Encode();
  const sim::SimTime started = endpoint_.sim().now();

  Status last_error(StatusCode::kUnavailable);
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++failovers_;
      c_failovers_.Inc();
      current_server_ = (current_server_ + 1) % config_.servers.size();
      co_await endpoint_.sim().Delay(config_.retry_backoff);
    }
    ++requests_sent_;
    c_requests_.Inc();
    span.Arm();  // resumptions above may have clobbered the current trace
    auto raw = co_await endpoint_.Call(config_.servers[current_server_],
                                       method::kRequest, payload,
                                       config_.request_timeout);
    if (!raw.ok()) {
      last_error = raw.status();
      continue;
    }
    auto resp = Reply::Decode(std::move(*raw));
    if (!resp.ok()) {
      last_error = resp.status();
      continue;
    }
    if (resp->code() == StatusCode::kUnavailable) {
      last_error = Status(StatusCode::kUnavailable);
      continue;
    }
    t_rpc_.Record(endpoint_.sim().now() - started);
    co_return std::move(*resp);
  }
  t_rpc_.Record(endpoint_.sim().now() - started);
  co_return last_error;
}

sim::Task<Status> ZkClient::Connect() {
  Op op;
  op.type = OpType::kCreateSession;
  auto resp = co_await Execute<ClientResponse>(std::move(op), {});
  if (!resp.ok()) co_return resp.status();
  connected_ = resp->result.ok();
  co_return resp->result.ToStatus();
}

sim::Task<Status> ZkClient::Close() {
  Op op;
  op.type = OpType::kCloseSession;
  auto resp = co_await Execute<ClientResponse>(std::move(op), {});
  connected_ = false;
  if (!resp.ok()) co_return resp.status();
  co_return resp->result.ToStatus();
}

sim::Task<Result<std::string>> ZkClient::Create(std::string path,
                                                std::vector<std::uint8_t> data,
                                                CreateMode mode) {
  auto resp = co_await Execute<ClientResponse>(
      Op::Create(std::move(path), std::move(data), mode), {});
  if (!resp.ok()) co_return resp.status();
  if (!resp->result.ok()) co_return resp->result.ToStatus();
  co_return std::move(resp->result.created_path);
}

sim::Task<Result<OpResult>> ZkClient::Get(std::string path, bool watch) {
  Op op;
  op.type = OpType::kGetData;
  op.path = std::move(path);
  op.watch = watch;
  auto resp = co_await Execute<ClientResponse>(std::move(op), {});
  if (!resp.ok()) co_return resp.status();
  if (!resp->result.ok()) co_return resp->result.ToStatus();
  co_return std::move(resp->result);
}

sim::Task<Result<ZnodeStat>> ZkClient::Set(std::string path,
                                           std::vector<std::uint8_t> data,
                                           std::int32_t version) {
  auto resp = co_await Execute<ClientResponse>(
      Op::SetData(std::move(path), std::move(data), version), {});
  if (!resp.ok()) co_return resp.status();
  if (!resp->result.ok()) co_return resp->result.ToStatus();
  co_return resp->result.stat;
}

sim::Task<Status> ZkClient::Delete(std::string path, std::int32_t version) {
  auto resp = co_await Execute<ClientResponse>(
      Op::Delete(std::move(path), version), {});
  if (!resp.ok()) co_return resp.status();
  co_return resp->result.ToStatus();
}

sim::Task<Result<ZnodeStat>> ZkClient::Exists(std::string path, bool watch) {
  Op op;
  op.type = OpType::kExists;
  op.path = std::move(path);
  op.watch = watch;
  auto resp = co_await Execute<ClientResponse>(std::move(op), {});
  if (!resp.ok()) co_return resp.status();
  if (!resp->result.ok()) co_return resp->result.ToStatus();
  co_return resp->result.stat;
}

sim::Task<Result<std::vector<std::string>>> ZkClient::GetChildren(
    std::string path, bool watch) {
  Op op;
  op.type = OpType::kGetChildren;
  op.path = std::move(path);
  op.watch = watch;
  auto resp = co_await Execute<ClientResponse>(std::move(op), {});
  if (!resp.ok()) co_return resp.status();
  if (!resp->result.ok()) co_return resp->result.ToStatus();
  co_return std::move(resp->result.children);
}

sim::Task<Status> ZkClient::Sync() {
  Op op;
  op.type = OpType::kSync;
  auto resp = co_await Execute<ClientResponse>(std::move(op), {});
  if (!resp.ok()) co_return resp.status();
  co_return resp->result.ToStatus();
}

sim::Task<Result<std::vector<OpResult>>> ZkClient::Multi(std::vector<Op> ops) {
  Op op;
  op.type = OpType::kMulti;
  auto resp = co_await Execute<ClientResponse>(std::move(op), std::move(ops));
  if (!resp.ok()) co_return resp.status();
  if (!resp->result.ok()) co_return resp->result.ToStatus();
  co_return std::move(resp->multi_results);
}

sim::Task<Result<CompoundReply>> ZkClient::Resolve(std::string path,
                                                   bool watch,
                                                   std::uint8_t dir_tag) {
  co_return co_await Execute<CompoundReply>(
      Op::ResolvePath(std::move(path), watch, dir_tag), {});
}

sim::Task<Result<CompoundReply>> ZkClient::ReadDirPlus(std::string path,
                                                       bool watch,
                                                       std::uint8_t dir_tag) {
  co_return co_await Execute<CompoundReply>(
      Op::ReadDirPlus(std::move(path), watch, dir_tag), {});
}

sim::Task<Result<CompoundReply>> ZkClient::ResolveCreate(
    std::string path, std::vector<std::uint8_t> data, CreateMode mode,
    std::uint8_t dir_tag, bool watch) {
  co_return co_await Execute<CompoundReply>(
      Op::ResolveCreate(std::move(path), std::move(data), mode, dir_tag,
                        watch),
      {});
}

sim::Task<Result<CompoundReply>> ZkClient::ResolveDelete(std::string path,
                                                         std::int32_t version,
                                                         std::uint8_t dir_tag,
                                                         bool watch) {
  co_return co_await Execute<CompoundReply>(
      Op::ResolveDelete(std::move(path), version, dir_tag, watch), {});
}

}  // namespace dufs::zk
