// Client library for the coordination service — the synchronous-style API
// the paper uses (zoo_create / zoo_get / zoo_set / zoo_delete, §V-A), plus
// exists/get_children/sync/multi and one-shot watches.
//
// A client owns one session, attached to one ensemble server (the paper
// co-locates ZooKeeper servers with DUFS clients and pins sessions). On
// kUnavailable/kTimeout the client fails over to the next server and
// retries, which keeps workloads running across leader elections.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/rpc.h"
#include "obs/obs.h"
#include "zk/proto.h"

namespace dufs::zk {

struct ZkClientConfig {
  std::vector<net::NodeId> servers;
  std::size_t attach_index = 0;  // session server = servers[attach_index % n]
  int max_retries = 4;
  sim::Duration retry_backoff = sim::Ms(40);
  sim::Duration request_timeout = sim::Sec(4);
};

class ZkClient {
 public:
  using WatchCallback = std::function<void(const WatchEvent&)>;

  ZkClient(net::RpcEndpoint& endpoint, ZkClientConfig config);

  // Registers the session with the ensemble (replicated CreateSession).
  sim::Task<Status> Connect();
  // Deletes the session's ephemerals on every replica.
  sim::Task<Status> Close();

  sim::Simulation& sim() { return endpoint_.sim(); }
  SessionId session() const { return session_; }
  bool connected() const { return connected_; }

  // --- the zoo_* API -----------------------------------------------------
  sim::Task<Result<std::string>> Create(
      std::string path, std::vector<std::uint8_t> data,
      CreateMode mode = CreateMode::kPersistent);
  sim::Task<Result<OpResult>> Get(std::string path, bool watch = false);
  sim::Task<Result<ZnodeStat>> Set(std::string path,
                                   std::vector<std::uint8_t> data,
                                   std::int32_t version = kAnyVersion);
  sim::Task<Status> Delete(std::string path,
                           std::int32_t version = kAnyVersion);
  sim::Task<Result<ZnodeStat>> Exists(std::string path, bool watch = false);
  sim::Task<Result<std::vector<std::string>>> GetChildren(std::string path,
                                                          bool watch = false);
  sim::Task<Status> Sync();
  // Atomic batch; returns per-op results on success, first failure otherwise.
  sim::Task<Result<std::vector<OpResult>>> Multi(std::vector<Op> ops);

  // --- compound ops (server-side path resolution, DESIGN.md §13) ----------
  // Unlike the zoo_* calls above, these return the whole reply with the
  // application-level code left *inside* it (only transport failures become
  // a bad status): a partial miss still carries the resolved prefix the
  // caller seeds its cache from. A nonzero dir_tag makes the server require
  // every interior component's data to begin with that byte (ENOTDIR
  // otherwise); `watch` registers per-component one-shot watches.
  sim::Task<Result<CompoundReply>> Resolve(std::string path, bool watch = false,
                                           std::uint8_t dir_tag = 0);
  sim::Task<Result<CompoundReply>> ReadDirPlus(std::string path,
                                               bool watch = false,
                                               std::uint8_t dir_tag = 0);
  sim::Task<Result<CompoundReply>> ResolveCreate(
      std::string path, std::vector<std::uint8_t> data,
      CreateMode mode = CreateMode::kPersistent, std::uint8_t dir_tag = 0,
      bool watch = false);
  sim::Task<Result<CompoundReply>> ResolveDelete(
      std::string path, std::int32_t version = kAnyVersion,
      std::uint8_t dir_tag = 0, bool watch = false);

  // One watch sink per client node (first client to register wins).
  void SetWatchHandler(WatchCallback cb);

  // Spawns a heartbeat loop keeping the session alive under the ensemble's
  // session_timeout. Stops when this node crashes (which is how ephemeral
  // cleanup on client death is exercised).
  void StartHeartbeats(sim::Duration interval);

  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t failovers() const { return failovers_; }

  // Optional: metrics + trace spans for every RPC issued by this client.
  void AttachObs(obs::NodeObs node_obs);

 private:
  // Sends one request and decodes the reply as `Reply` (ClientResponse or
  // CompoundReply). The only retry loop: a transport failure, a reply that
  // does not decode and a kUnavailable reply each fail over and retry.
  template <typename Reply>
  sim::Task<Result<Reply>> Execute(Op op, std::vector<Op> multi_ops);

  net::RpcEndpoint& endpoint_;
  ZkClientConfig config_;
  std::size_t current_server_;
  SessionId session_;
  bool connected_ = false;
  WatchCallback watch_cb_;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t failovers_ = 0;
  obs::NodeObs obs_;
  obs::Counter c_requests_;
  obs::Counter c_failovers_;
  obs::Timer t_rpc_;
};

}  // namespace dufs::zk
