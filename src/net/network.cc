#include "net/network.h"

#include <algorithm>
#include <utility>

namespace dufs::net {

Node::Node(sim::Simulation& sim, NodeId id, std::string name, NodeModel model)
    : egress(sim, 1),
      ingress(sim, 1),
      id_(id),
      name_(std::move(name)),
      model_(model),
      cpu_(sim, model.cores),
      disk_(sim, 1) {}

void Node::Deliver(Message msg) {
  if (!up_) return;
  ++messages_received;
  if (sink_) sink_(std::move(msg));
}

void Node::Crash() { up_ = false; }

void Node::Restart() {
  up_ = true;
  ++incarnation_;
}

NodeId Network::AddNode(std::string name, NodeModel model) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(sim_, id, std::move(name), model));
  if (obs_ != nullptr) InstallNicObs(*nodes_.back());
  return id;
}

Node& Network::node(NodeId id) {
  DUFS_CHECK(id < nodes_.size());
  return *nodes_[id];
}

const Node& Network::node(NodeId id) const {
  DUFS_CHECK(id < nodes_.size());
  return *nodes_[id];
}

void Network::Send(Message msg) {
  DUFS_CHECK(msg.src < nodes_.size() && msg.dst < nodes_.size());
  sim::CurrentSimulationScope scope(&sim_);
  sim_.Spawn(Transfer(std::move(msg)));
}

void Network::AttachObs(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  for (auto& node : nodes_) InstallNicObs(*node);
}

void Network::InstallNicObs(Node& node) {
  Node::NicObs& n = node.nic_obs();
  n.node = obs_->Node(node.name());
  n.tx_wait = n.node.histogram("nic.tx_wait_ns");
  n.tx_time = n.node.histogram("nic.tx_ns");
  n.rx_wait = n.node.histogram("nic.rx_wait_ns");
}

sim::Task<void> Network::Transfer(Message msg) {
  Node& src = node(msg.src);
  if (!src.up()) co_return;  // sender died before the packet left

  // Spawned synchronously from Send, so the sender's armed trace id is
  // still current here. The Node (and its NicObs handles) is stable
  // storage, safe to reference across suspensions.
  const obs::TraceId trace = obs_ != nullptr ? obs_->tracer().current() : 0;

  // A NIC is a capacity-1 FIFO server whose service time is fixed when a
  // message joins its queue, so its departure is known at once.
  // Next event: arrival at the destination NIC.
  const std::size_t wire = msg.WireSize();
  const sim::SimTime sent = sim_.now();
  const sim::Duration tx = src.model().nic.TxTime(wire);
  const sim::SimTime tx_start = src.egress.Join(tx);
  Node::NicObs& src_obs = src.nic_obs();
  src_obs.tx_wait.Record(tx_start - sent);
  src_obs.tx_time.Record(tx);
  ++src.messages_sent;
  co_await sim_.Delay(tx_start + tx + src.model().nic.base_latency - sent);

  if (obs_ != nullptr && obs_->tracer().enabled()) {
    obs_->tracer().Complete(src_obs.node.track, "nic-tx", "net", sent,
                            tx_start + tx - sent, trace,
                            {{"wait_ns", tx_start - sent},
                             {"tx_ns", tx},
                             {"bytes", static_cast<std::int64_t>(wire)}});
  }
  Node& dst = node(msg.dst);
  if (Partitioned(msg.src, msg.dst) || !dst.up()) {
    ++messages_dropped_;
    co_return;
  }
  // Destination NIC serialization (receive-side bottleneck for fan-in),
  // computed the same way. Next event: delivery.
  const sim::SimTime arrived = sim_.now();
  const sim::Duration rx = dst.model().nic.TxTime(wire);
  const sim::SimTime rx_start = dst.ingress.Join(rx);
  co_await sim_.Delay(rx_start + rx - arrived);

  Node::NicObs& dst_obs = dst.nic_obs();
  dst_obs.rx_wait.Record(rx_start - arrived);
  if (obs_ != nullptr && obs_->tracer().enabled()) {
    obs_->tracer().Complete(dst_obs.node.track, "nic-rx", "net", arrived,
                            sim_.now() - arrived, trace,
                            {{"wait_ns", rx_start - arrived},
                             {"bytes", static_cast<std::int64_t>(wire)}});
  }
  if (!dst.up() || Partitioned(msg.src, msg.dst)) {
    ++messages_dropped_;
    co_return;  // crashed or cut while the bytes were in flight
  }
  ++messages_delivered_;
  dst.Deliver(std::move(msg));
}

void Network::Partition(NodeId a, NodeId b) {
  partitions_.insert({std::min(a, b), std::max(a, b)});
}

void Network::Heal(NodeId a, NodeId b) {
  partitions_.erase({std::min(a, b), std::max(a, b)});
}

void Network::HealAll() { partitions_.clear(); }

bool Network::Partitioned(NodeId a, NodeId b) const {
  // Only fault tests ever partition; skip the lookup on the hot path.
  if (partitions_.empty()) return false;
  return partitions_.count({std::min(a, b), std::max(a, b)}) > 0;
}

}  // namespace dufs::net
