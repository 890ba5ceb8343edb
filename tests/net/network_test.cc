#include "net/network.h"

#include <gtest/gtest.h>

#include "net/rpc.h"
#include "sim/task.h"
#include "wire/buffer.h"

namespace dufs::net {
namespace {

struct TwoNodeFixture {
  sim::Simulation sim;
  Network net{sim};
  NodeId a, b;
  TwoNodeFixture() {
    a = net.AddNode("a");
    b = net.AddNode("b");
  }
};

TEST(NetworkTest, MessageArrivesWithLatency) {
  TwoNodeFixture f;
  sim::SimTime arrival = -1;
  f.net.node(f.b).SetSink([&](Message) { arrival = f.sim.now(); });
  Message m;
  m.src = f.a;
  m.dst = f.b;
  m.payload.assign(100, 0);
  f.net.Send(std::move(m));
  f.sim.Run();
  // tx(src) + latency + rx(dst) — must be strictly positive and bounded by
  // a couple hundred microseconds for a small message on 1 GigE.
  EXPECT_GT(arrival, 0);
  EXPECT_LT(arrival, sim::Us(300));
}

TEST(NetworkTest, BigMessageCostsBandwidth) {
  TwoNodeFixture f;
  sim::SimTime small_arrival = 0, big_arrival = 0;
  int deliveries = 0;
  f.net.node(f.b).SetSink([&](Message m) {
    ++deliveries;
    if (m.payload.size() > 1000) {
      big_arrival = f.sim.now();
    } else {
      small_arrival = f.sim.now();
    }
  });
  {
    Message m;
    m.src = f.a;
    m.dst = f.b;
    m.payload.assign(100, 0);
    f.net.Send(std::move(m));
  }
  f.sim.Run();
  {
    Message m;
    m.src = f.a;
    m.dst = f.b;
    m.payload.assign(1'000'000, 0);
    f.net.Send(std::move(m));
  }
  f.sim.Run();
  EXPECT_EQ(deliveries, 2);
  // 1 MB at ~112 MB/s ≈ 8.9 ms per NIC traversal; far above the small one.
  EXPECT_GT(big_arrival - small_arrival, sim::Ms(5));
}

TEST(NetworkTest, EgressSerializesMessages) {
  TwoNodeFixture f;
  std::vector<sim::SimTime> arrivals;
  f.net.node(f.b).SetSink([&](Message) { arrivals.push_back(f.sim.now()); });
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.src = f.a;
    m.dst = f.b;
    m.payload.assign(500'000, 0);  // ~4.5ms tx each
    f.net.Send(std::move(m));
  }
  f.sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_GT(arrivals[1] - arrivals[0], sim::Ms(3));
  EXPECT_GT(arrivals[2] - arrivals[1], sim::Ms(3));
}

Message Sized(NodeId src, NodeId dst, std::size_t payload_bytes) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.payload.assign(payload_bytes, 0);
  return m;
}

// Each NIC is a capacity-1 FIFO server: a message leaves the source NIC
// TxTime after the source NIC frees up, reaches the destination base_latency
// later, and is delivered TxTime after the destination NIC frees up.
TEST(NetworkTest, BackToBackSendsDeliverAtExactTimes) {
  TwoNodeFixture f;
  std::vector<sim::SimTime> arrivals;
  f.net.node(f.b).SetSink([&](Message) { arrivals.push_back(f.sim.now()); });
  // The big middle message keeps the destination NIC busy past the third
  // message's arrival, so the third one also waits at ingress.
  const std::size_t sizes[] = {1'000, 200'000, 500};
  for (std::size_t s : sizes) f.net.Send(Sized(f.a, f.b, s));
  f.sim.Run();

  const NicModel nic;
  sim::SimTime egress_free = 0;
  sim::SimTime ingress_free = 0;
  std::vector<sim::SimTime> expected;
  int queued_at_ingress = 0;
  for (std::size_t s : sizes) {
    const sim::Duration tx = nic.TxTime(s + Message::kHeaderBytes);
    egress_free += tx;
    const sim::SimTime arrive = egress_free + nic.base_latency;
    if (arrive < ingress_free) ++queued_at_ingress;
    ingress_free = std::max(arrive, ingress_free) + tx;
    expected.push_back(ingress_free);
  }
  EXPECT_EQ(arrivals, expected);
  EXPECT_EQ(queued_at_ingress, 1);
  EXPECT_EQ(f.net.node(f.a).messages_sent, 3u);
  EXPECT_EQ(f.net.node(f.b).messages_received, 3u);
  EXPECT_EQ(f.net.messages_delivered(), 3u);
}

TEST(NetworkTest, FanInSerializesAtIngress) {
  obs::Observability obs;
  sim::Simulation sim;
  Network net{sim};
  net.AttachObs(&obs);
  const NodeId a = net.AddNode("a");
  const NodeId c = net.AddNode("c");
  const NodeId b = net.AddNode("b");
  std::vector<std::pair<NodeId, sim::SimTime>> arrivals;
  net.node(b).SetSink(
      [&](Message m) { arrivals.emplace_back(m.src, sim.now()); });
  net.Send(Sized(a, b, 10'000));
  net.Send(Sized(c, b, 10'000));
  sim.Run();

  const NicModel nic;
  const sim::Duration tx = nic.TxTime(10'000 + Message::kHeaderBytes);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], std::make_pair(a, tx + nic.base_latency + tx));
  EXPECT_EQ(arrivals[1], std::make_pair(c, arrivals[0].second + tx));
  const LatencyHistogram& rx_wait =
      obs.Node("b").histogram("nic.rx_wait_ns").hist();
  EXPECT_EQ(rx_wait.count(), 2u);
  EXPECT_EQ(rx_wait.sum(), tx);
  EXPECT_EQ(rx_wait.MaxSample(), tx);
  // Neither sender queued at its own NIC.
  EXPECT_EQ(obs.Node("a").histogram("nic.tx_wait_ns").hist().sum(), 0);
  EXPECT_EQ(obs.Node("c").histogram("nic.tx_wait_ns").hist().sum(), 0);
  EXPECT_EQ(obs.Node("c").histogram("nic.tx_ns").hist().sum(), tx);
}

TEST(NetworkTest, DestinationCrashDuringIngressDrops) {
  TwoNodeFixture f;
  int deliveries = 0;
  f.net.node(f.b).SetSink([&](Message) { ++deliveries; });
  const NicModel nic;
  const sim::Duration tx = nic.TxTime(1'000'000 + Message::kHeaderBytes);
  f.net.Send(Sized(f.a, f.b, 1'000'000));
  // Arrives at tx + base_latency; its ingress ends tx later.
  f.sim.ScheduleFn(tx + nic.base_latency + tx / 2,
                   [&f] { f.net.node(f.b).Crash(); });
  f.sim.Run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(f.net.messages_dropped(), 1u);
  EXPECT_EQ(f.net.messages_delivered(), 0u);
  EXPECT_EQ(f.net.node(f.a).messages_sent, 1u);
}

TEST(NetworkTest, PartitionRaisedInFlightDrops) {
  TwoNodeFixture f;
  int deliveries = 0;
  f.net.node(f.b).SetSink([&](Message) { ++deliveries; });
  const NicModel nic;
  const sim::Duration tx = nic.TxTime(1'000'000 + Message::kHeaderBytes);
  // Cut while the message is still in the source NIC: dropped on arrival.
  f.net.Send(Sized(f.a, f.b, 1'000'000));
  f.sim.ScheduleFn(tx / 2, [&f] { f.net.Partition(f.a, f.b); });
  f.sim.Run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(f.net.messages_dropped(), 1u);

  // Cut while the message is in the destination NIC: dropped on delivery.
  f.net.Heal(f.a, f.b);
  const sim::SimTime sent = f.sim.now();
  f.net.Send(Sized(f.a, f.b, 1'000'000));
  f.sim.ScheduleFn(tx + nic.base_latency + tx / 2,
                   [&f] { f.net.Partition(f.b, f.a); });
  f.sim.Run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(f.net.messages_dropped(), 2u);
  EXPECT_GE(f.sim.now(), sent + tx + nic.base_latency + tx / 2);

  f.net.HealAll();
  f.net.Send(Sized(f.a, f.b, 100));
  f.sim.Run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(f.net.messages_delivered(), 1u);
}

TEST(NetworkTest, CrashedDestinationDrops) {
  TwoNodeFixture f;
  int deliveries = 0;
  f.net.node(f.b).SetSink([&](Message) { ++deliveries; });
  f.net.node(f.b).Crash();
  Message m;
  m.src = f.a;
  m.dst = f.b;
  f.net.Send(std::move(m));
  f.sim.Run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(f.net.messages_dropped(), 1u);
}

TEST(NetworkTest, PartitionDropsAndHealRestores) {
  TwoNodeFixture f;
  int deliveries = 0;
  f.net.node(f.b).SetSink([&](Message) { ++deliveries; });
  f.net.Partition(f.a, f.b);
  {
    Message m;
    m.src = f.a;
    m.dst = f.b;
    f.net.Send(std::move(m));
  }
  f.sim.Run();
  EXPECT_EQ(deliveries, 0);
  f.net.Heal(f.a, f.b);
  {
    Message m;
    m.src = f.a;
    m.dst = f.b;
    f.net.Send(std::move(m));
  }
  f.sim.Run();
  EXPECT_EQ(deliveries, 1);
}

TEST(NetworkTest, RestartBumpsIncarnation) {
  TwoNodeFixture f;
  const auto inc0 = f.net.node(f.a).incarnation();
  f.net.node(f.a).Crash();
  EXPECT_FALSE(f.net.node(f.a).up());
  f.net.node(f.a).Restart();
  EXPECT_TRUE(f.net.node(f.a).up());
  EXPECT_EQ(f.net.node(f.a).incarnation(), inc0 + 1);
}

TEST(NodeTest, ComputeQueuesBehindBusyCores) {
  sim::Simulation sim;
  Network net(sim);
  NodeModel model;
  model.cores = 2;
  const NodeId n = net.AddNode("srv", model);
  std::vector<sim::SimTime> done;
  {
    sim::CurrentSimulationScope scope(&sim);
    for (int i = 0; i < 4; ++i) {
      sim.Spawn([](sim::Simulation& s, Node& node,
                   std::vector<sim::SimTime>& d) -> sim::Task<void> {
        co_await node.Compute(sim::Ms(10));
        d.push_back(s.now());
      }(sim, net.node(n), done));
    }
  }
  sim.Run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], sim::Ms(10));
  EXPECT_EQ(done[1], sim::Ms(10));
  EXPECT_EQ(done[2], sim::Ms(20));
  EXPECT_EQ(done[3], sim::Ms(20));
}

// A crash does not end the frames running on a node, so a job in service
// keeps its core until its departure, and a job that joins after the
// restart starts there.
TEST(NodeTest, CrashKeepsAJobInServiceUntilItsDeparture) {
  sim::Simulation sim;
  Network net(sim);
  NodeModel model;
  model.cores = 1;
  Node& node = net.node(net.AddNode("srv", model));
  std::vector<sim::SimTime> done;
  auto job = [](sim::Simulation& s, Node& n, sim::Duration wait,
                sim::Duration cpu,
                std::vector<sim::SimTime>& d) -> sim::Task<void> {
    co_await s.Delay(wait);
    co_await n.Compute(cpu);
    d.push_back(s.now());
  };
  {
    sim::CurrentSimulationScope scope(&sim);
    sim.Spawn(job(sim, node, 0, sim::Ms(10), done));
    sim.Spawn(job(sim, node, sim::Ms(3), sim::Ms(1), done));
  }
  sim.ScheduleFn(sim::Ms(1), [&node] { node.Crash(); });
  sim.ScheduleFn(sim::Ms(2), [&node] { node.Restart(); });
  sim.Run();
  EXPECT_TRUE(node.up());
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], sim::Ms(10));
  EXPECT_EQ(done[1], sim::Ms(11));
}

// ---------------------------------------------------------------- RPC ----

constexpr std::uint16_t kEcho = 1;
constexpr std::uint16_t kSlow = 2;

struct RpcFixture {
  sim::Simulation sim;
  Network net{sim};
  NodeId a, b;
  std::unique_ptr<RpcEndpoint> ep_a, ep_b;

  RpcFixture() {
    a = net.AddNode("client");
    b = net.AddNode("server");
    ep_a = std::make_unique<RpcEndpoint>(net, a);
    ep_b = std::make_unique<RpcEndpoint>(net, b);
    // The fixture owns ep_b (and so the handler closures) and outlives
    // every sim.Run() that can invoke them.
    ep_b->RegisterHandler(kEcho,
                          [this](NodeId, Payload req) -> sim::Task<RpcResult> {
                            co_await net.node(b).Compute(sim::Us(10));
                            co_return req;  // echo
                          });
    ep_b->RegisterHandler(kSlow,
                          [this](NodeId, Payload req) -> sim::Task<RpcResult> {
                            co_await sim.Delay(sim::Sec(10));
                            co_return req;
                          });
  }
};

TEST(RpcTest, EchoRoundTrip) {
  RpcFixture f;
  auto result = sim::RunTask(
      f.sim, [](RpcFixture& fx) -> sim::Task<RpcResult> {
        Payload req;
        req.assign({1, 2, 3});
        co_return co_await fx.ep_a->Call(fx.b, kEcho, std::move(req));
      }(f));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (Payload{1, 2, 3}));
  EXPECT_GT(f.sim.now(), 0);
}

TEST(RpcTest, TimeoutWhenHandlerTooSlow) {
  RpcFixture f;
  auto result = sim::RunTask(
      f.sim, [](RpcFixture& fx) -> sim::Task<RpcResult> {
        co_return co_await fx.ep_a->Call(fx.b, kSlow, Payload{},
                                         /*timeout=*/sim::Sec(1));
      }(f));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), StatusCode::kTimeout);
  EXPECT_EQ(f.sim.now(), sim::Sec(1));
}

TEST(RpcTest, TimeoutWhenServerDown) {
  RpcFixture f;
  f.net.node(f.b).Crash();
  auto result = sim::RunTask(
      f.sim, [](RpcFixture& fx) -> sim::Task<RpcResult> {
        co_return co_await fx.ep_a->Call(fx.b, kEcho, Payload{},
                                         /*timeout=*/sim::Ms(100));
      }(f));
  EXPECT_EQ(result.code(), StatusCode::kTimeout);
}

TEST(RpcTest, UnknownMethodTimesOut) {
  RpcFixture f;
  auto result = sim::RunTask(
      f.sim, [](RpcFixture& fx) -> sim::Task<RpcResult> {
        co_return co_await fx.ep_a->Call(fx.b, 999, Payload{},
                                         /*timeout=*/sim::Ms(50));
      }(f));
  EXPECT_EQ(result.code(), StatusCode::kTimeout);
}

TEST(RpcTest, ConcurrentCallsAllComplete) {
  RpcFixture f;
  auto results = sim::RunTask(
      f.sim, [](RpcFixture& fx) -> sim::Task<int> {
        int ok = 0;
        // Sequential from one task; concurrency comes from multiple spawns
        // in other tests — here we validate rpc_id multiplexing correctness.
        for (int i = 0; i < 20; ++i) {
          Payload p{static_cast<std::uint8_t>(i)};
          auto r = co_await fx.ep_a->Call(fx.b, kEcho, p);
          if (r.ok() && r->at(0) == i) ++ok;
        }
        co_return ok;
      }(f));
  EXPECT_EQ(results, 20);
}

// An answered call leaves no event behind: its deadline waits in the
// endpoint's 4 s FIFO, whose one timer is armed for the first call and,
// finding every call answered when it fires, is not re-armed.
TEST(RpcTest, AnsweredCallsLeaveNoTimerBehind) {
  RpcFixture f;
  const sim::SimTime start = f.sim.now();
  const int ok = sim::RunTask(
      f.sim, [](RpcFixture& fx) -> sim::Task<int> {
        int answered = 0;
        for (int i = 0; i < 20; ++i) {
          auto r = co_await fx.ep_a->Call(fx.b, kEcho, Payload(1, 1));
          if (r.ok()) ++answered;
        }
        co_return answered;
      }(f));
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(f.sim.pending_events(), 1u);
  f.sim.Run(start + sim::Sec(4));
  EXPECT_EQ(f.sim.now(), start + sim::Sec(4));
  EXPECT_EQ(f.sim.pending_events(), 0u);
}

// Each timeout value has its own FIFO: a 100 ms call issued after a 1 s one
// still times out first, and a second 1 s call, 50 ms later, times out when
// the FIFO's timer re-arms for it. All three at their exact deadlines.
TEST(RpcTest, DeadlinesFireExactlyPerTimeout) {
  RpcFixture f;
  const sim::SimTime start = f.sim.now();
  struct Outcome {
    StatusCode code = StatusCode::kOk;
    sim::SimTime at = -1;
  };
  Outcome slow, fast, later;
  {
    sim::CurrentSimulationScope scope(&f.sim);
    auto call = [](RpcFixture& fx, sim::Duration after, sim::Duration timeout,
                   Outcome& out) -> sim::Task<void> {
      co_await fx.sim.Delay(after);
      auto r = co_await fx.ep_a->Call(fx.b, kSlow, Payload{}, timeout);
      out.code = r.code();
      out.at = fx.sim.now();
    };
    f.sim.Spawn(call(f, 0, sim::Sec(1), slow));
    f.sim.Spawn(call(f, 0, sim::Ms(100), fast));
    f.sim.Spawn(call(f, sim::Ms(50), sim::Sec(1), later));
  }
  f.sim.Run(start + sim::Sec(2));
  EXPECT_EQ(fast.code, StatusCode::kTimeout);
  EXPECT_EQ(fast.at, start + sim::Ms(100));
  EXPECT_EQ(slow.code, StatusCode::kTimeout);
  EXPECT_EQ(slow.at, start + sim::Sec(1));
  EXPECT_EQ(later.code, StatusCode::kTimeout);
  EXPECT_EQ(later.at, start + sim::Ms(1050));
}

// A reply that arrives after its call timed out is dropped, even while a
// later call on the same endpoint waits; that call gets its own reply.
TEST(RpcTest, LateReplyIsDroppedAndNextCallSucceeds) {
  RpcFixture f;
  auto second = sim::RunTask(
      f.sim, [](RpcFixture& fx) -> sim::Task<RpcResult> {
        auto first = co_await fx.ep_a->Call(fx.b, kSlow, Payload(1, 7),
                                            /*timeout=*/sim::Sec(1));
        EXPECT_EQ(first.code(), StatusCode::kTimeout);
        // The first reply lands about 9 s into this call.
        co_return co_await fx.ep_a->Call(fx.b, kSlow, Payload(1, 8),
                                         /*timeout=*/sim::Sec(20));
      }(f));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*second, (Payload{8}));
  EXPECT_GT(f.sim.now(), sim::Sec(11));
  EXPECT_LT(f.sim.now(), sim::Sec(12));
}

// Shutdown tears down a waiting call's frame and drops its FIFO's timer; a
// call made on the reused simulation still times out at its exact deadline.
TEST(RpcTest, CallAfterShutdownWithCallPendingTimesOutOnTime) {
  RpcFixture f;
  {
    sim::CurrentSimulationScope scope(&f.sim);
    f.sim.Spawn([](RpcFixture& fx) -> sim::Task<void> {
      (void)co_await fx.ep_a->Call(fx.b, kSlow, Payload{},
                                   /*timeout=*/sim::Sec(1));
      ADD_FAILURE() << "the call outlived Shutdown";
    }(f));
  }
  f.sim.Run(sim::Ms(100));
  f.sim.Shutdown();
  EXPECT_EQ(f.sim.pending_events(), 0u);
  const sim::SimTime restart = f.sim.now();
  auto result = sim::RunTask(
      f.sim, [](RpcFixture& fx) -> sim::Task<RpcResult> {
        co_return co_await fx.ep_a->Call(fx.b, kSlow, Payload{},
                                         /*timeout=*/sim::Sec(1));
      }(f));
  EXPECT_EQ(result.code(), StatusCode::kTimeout);
  EXPECT_EQ(f.sim.now(), restart + sim::Sec(1));
}

TEST(RpcTest, NotifyDeliversWithoutResponse) {
  RpcFixture f;
  int notified = 0;
  // `notified` and the handler closure both outlive the sim.Run() below.
  f.ep_b->RegisterHandler(7, [&](NodeId, Payload) -> sim::Task<RpcResult> {
    ++notified;
    co_return Payload{};
  });
  f.ep_a->Notify(f.b, 7, Payload{9});
  f.sim.Run();
  EXPECT_EQ(notified, 1);
}

TEST(RpcTest, CallFromDownNodeFailsFast) {
  RpcFixture f;
  f.net.node(f.a).Crash();
  auto result = sim::RunTask(
      f.sim, [](RpcFixture& fx) -> sim::Task<RpcResult> {
        co_return co_await fx.ep_a->Call(fx.b, kEcho, Payload{});
      }(f));
  EXPECT_EQ(result.code(), StatusCode::kNotConnected);
}

}  // namespace
}  // namespace dufs::net
