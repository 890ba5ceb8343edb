// Simulated cluster: nodes with CPU / NIC / disk resources, and a network
// that moves Messages between them with 1 GigE costs. Supports failure
// injection (node crash/restart, pairwise partitions).
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/perf_model.h"
#include "obs/obs.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace dufs::net {

class Network;

// One machine. Owned by the Network; refer to it by NodeId.
class Node {
 public:
  Node(sim::Simulation& sim, NodeId id, std::string name, NodeModel model);

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  const NodeModel& model() const { return model_; }
  // Mutable access for mid-run fault injection (e.g. a degrading disk):
  // DiskWrite/TxTime read the model at call time, so changes take effect
  // for every subsequent I/O on this node.
  NodeModel& mutable_model() { return model_; }

  bool up() const { return up_; }
  std::uint64_t incarnation() const { return incarnation_; }

  // Occupies one core for `cpu_time`. Queues behind other work when all
  // cores are busy — this is how server-side contention emerges.
  sim::Simulation::DelayAwaiter Compute(sim::Duration cpu_time) {
    return cpu_.Serve(cpu_time);
  }

  // Synchronous disk write (journal commit). Serializes on the disk device.
  sim::Simulation::DelayAwaiter DiskWrite(std::size_t bytes) {
    return disk_.Serve(model_.disk.WriteTime(bytes));
  }

  // Inbound-message sink, installed by the RPC endpoint.
  void SetSink(std::function<void(Message)> sink) { sink_ = std::move(sink); }
  void Deliver(Message msg);

  // Failure injection. Crash drops all queued state at the endpoint level
  // (the RPC layer watches the incarnation); restart bumps the incarnation.
  void Crash();
  void Restart();

  // The two NIC directions; Network::Transfer computes every NIC departure
  // from these.
  sim::FifoServer egress;
  sim::FifoServer ingress;

  // NIC instrumentation handles (serialization wait vs. wire time). Stored
  // on the Node — stable storage, already hot in Transfer's cache — so the
  // per-message path needs no lookup and no handle copies. Default handles
  // write to the shared dummy cells until Network::AttachObs installs real
  // ones.
  struct NicObs {
    obs::NodeObs node;
    obs::Histogram tx_wait;  // time queued behind the egress NIC, ns
    obs::Histogram tx_time;  // serialization (wire) time, ns
    obs::Histogram rx_wait;  // time queued behind the ingress NIC, ns
  };
  NicObs& nic_obs() { return nic_obs_; }

  // Traffic accounting for experiments.
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;

 private:
  NodeId id_;
  std::string name_;
  NodeModel model_;
  bool up_ = true;
  std::uint64_t incarnation_ = 1;
  sim::FifoServer cpu_;
  sim::FifoServer disk_;
  std::function<void(Message)> sink_;
  NicObs nic_obs_;
};

class Network {
 public:
  explicit Network(sim::Simulation& sim) : sim_(sim) {}

  NodeId AddNode(std::string name, NodeModel model = NodeModel{});
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  std::size_t size() const { return nodes_.size(); }

  // Asynchronously moves the message: serializes on the source NIC, waits
  // propagation latency, serializes on the destination NIC, then delivers.
  // Messages to crashed or partitioned destinations are silently dropped
  // (the RPC layer turns that into a timeout).
  void Send(Message msg);

  // Pairwise partition control (symmetric).
  void Partition(NodeId a, NodeId b);
  void Heal(NodeId a, NodeId b);
  void HealAll();
  bool Partitioned(NodeId a, NodeId b) const;

  sim::Simulation& sim() { return sim_; }

  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }

  // Optional: per-node NIC metrics (serialization wait vs. wire time) and
  // nic-tx / nic-rx trace spans. Nodes added later are picked up in
  // AddNode.
  void AttachObs(obs::Observability* obs);

 private:
  sim::Task<void> Transfer(Message msg);
  void InstallNicObs(Node& node);

  sim::Simulation& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  obs::Observability* obs_ = nullptr;
};

}  // namespace dufs::net
