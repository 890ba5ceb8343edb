// Session expiry: a client that stops heartbeating (crashed node) loses its
// session; the ensemble replicates the CloseSession, deleting its
// ephemerals everywhere. A heartbeating client survives indefinitely.
#include <gtest/gtest.h>

#include <memory>

#include "net/rpc.h"
#include "sim/task.h"
#include "testutil/co_assert.h"
#include "zk/client.h"
#include "zk/server.h"

namespace dufs::zk {
namespace {

std::vector<std::uint8_t> Bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

struct ExpiryEnsemble {
  sim::Simulation sim;
  net::Network net{sim};
  ZkEnsembleConfig config;
  std::vector<std::unique_ptr<net::RpcEndpoint>> server_eps;
  std::vector<std::unique_ptr<ZkServer>> servers;
  std::vector<net::NodeId> client_nodes;
  std::vector<std::unique_ptr<net::RpcEndpoint>> client_eps;
  std::vector<std::unique_ptr<ZkClient>> clients;

  explicit ExpiryEnsemble(sim::Duration session_timeout) {
    config.session_timeout = session_timeout;
    for (int i = 0; i < 3; ++i) {
      config.servers.push_back(net.AddNode("zk" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < 3; ++i) {
      server_eps.push_back(
          std::make_unique<net::RpcEndpoint>(net, config.servers[i]));
      servers.push_back(
          std::make_unique<ZkServer>(*server_eps[i], config, i));
      servers[i]->Start();
    }
    for (int i = 0; i < 2; ++i) {
      client_nodes.push_back(net.AddNode("client" + std::to_string(i)));
      client_eps.push_back(
          std::make_unique<net::RpcEndpoint>(net, client_nodes.back()));
      ZkClientConfig cc;
      cc.servers = config.servers;
      cc.attach_index = static_cast<std::size_t>(i);
      clients.push_back(std::make_unique<ZkClient>(*client_eps[i], cc));
    }
    sim::RunTask(sim, [](ExpiryEnsemble& e) -> sim::Task<void> {
      for (auto& c : e.clients) {
        CO_ASSERT_OK(co_await c->Connect());
      }
      CO_ASSERT_OK(
          (co_await e.clients[0]->Create("/locks", {})).status());
    }(*this));
  }
  ~ExpiryEnsemble() { sim.Shutdown(); }
};

TEST(SessionExpiryTest, SilentSessionLosesEphemerals) {
  ExpiryEnsemble e(sim::Ms(300));
  sim::RunTask(e.sim, [](ExpiryEnsemble& en) -> sim::Task<void> {
    auto created = co_await en.clients[1]->Create(
        "/locks/holder", Bytes("c1"), CreateMode::kEphemeral);
    CO_ASSERT_TRUE(created.ok());
  }(e));
  // Client 1 "crashes": no more requests, no heartbeats.
  e.net.node(e.client_nodes[1]).Crash();
  e.sim.Run(e.sim.now() + sim::Sec(1));
  sim::RunTask(e.sim, [](ExpiryEnsemble& en) -> sim::Task<void> {
    auto exists = co_await en.clients[0]->Exists("/locks/holder");
    EXPECT_EQ(exists.code(), StatusCode::kNotFound);  // expired + cleaned
  }(e));
}

TEST(SessionExpiryTest, HeartbeatingSessionSurvives) {
  ExpiryEnsemble e(sim::Ms(300));
  e.clients[1]->StartHeartbeats(sim::Ms(100));
  sim::RunTask(e.sim, [](ExpiryEnsemble& en) -> sim::Task<void> {
    auto created = co_await en.clients[1]->Create(
        "/locks/holder", Bytes("c1"), CreateMode::kEphemeral);
    CO_ASSERT_TRUE(created.ok());
  }(e));
  // Idle for far longer than the timeout — heartbeats keep it alive.
  e.sim.Run(e.sim.now() + sim::Sec(2));
  sim::RunTask(e.sim, [](ExpiryEnsemble& en) -> sim::Task<void> {
    auto exists = co_await en.clients[0]->Exists("/locks/holder");
    EXPECT_TRUE(exists.ok());
  }(e));
  // Stop heartbeating (crash) -> the ephemeral eventually vanishes.
  e.net.node(e.client_nodes[1]).Crash();
  e.sim.Run(e.sim.now() + sim::Sec(1));
  sim::RunTask(e.sim, [](ExpiryEnsemble& en) -> sim::Task<void> {
    auto exists = co_await en.clients[0]->Exists("/locks/holder");
    EXPECT_EQ(exists.code(), StatusCode::kNotFound);
  }(e));
}

TEST(SessionExpiryTest, ActiveRequestsCountAsActivity) {
  ExpiryEnsemble e(sim::Ms(300));
  sim::RunTask(e.sim, [](ExpiryEnsemble& en) -> sim::Task<void> {
    auto created = co_await en.clients[1]->Create(
        "/locks/holder", Bytes("x"), CreateMode::kEphemeral);
    CO_ASSERT_TRUE(created.ok());
    // Keep issuing reads (no heartbeats): activity refreshes the session.
    for (int i = 0; i < 10; ++i) {
      co_await en.sim.Delay(sim::Ms(200));
      auto exists = co_await en.clients[1]->Exists("/locks/holder");
      EXPECT_TRUE(exists.ok()) << "iteration " << i;
    }
  }(e));
}

TEST(SessionExpiryTest, DisabledByDefault) {
  ExpiryEnsemble e(/*session_timeout=*/0);
  sim::RunTask(e.sim, [](ExpiryEnsemble& en) -> sim::Task<void> {
    auto created = co_await en.clients[1]->Create(
        "/locks/holder", Bytes("x"), CreateMode::kEphemeral);
    CO_ASSERT_TRUE(created.ok());
  }(e));
  e.net.node(e.client_nodes[1]).Crash();
  e.sim.Run(e.sim.now() + sim::Sec(3));
  sim::RunTask(e.sim, [](ExpiryEnsemble& en) -> sim::Task<void> {
    // No expiry machinery: the ephemeral stays (session-less mode used by
    // the perf benches).
    auto exists = co_await en.clients[0]->Exists("/locks/holder");
    EXPECT_TRUE(exists.ok());
  }(e));
}

// Regression: watches used to outlive their session. Nothing but a trigger
// removed a watch, so after a session closed its registrations stayed in the
// servers' watch tables and a later change sent its node a WatchEvent for
// the dead session. Closing a session now drops its watches on every replica.
// Client 1 registers data, existence, child and compound watches; client 0
// keeps a watch of its own as the control.
const auto WatchEverything = [](ExpiryEnsemble& en) -> sim::Task<void> {
  CO_ASSERT_TRUE((co_await en.clients[0]->Create("/locks/w", Bytes("0"))).ok());
  CO_ASSERT_TRUE((co_await en.clients[0]->Get("/locks/w", true)).ok());
  CO_ASSERT_TRUE((co_await en.clients[1]->Get("/locks/w", true)).ok());
  auto later = co_await en.clients[1]->Exists("/locks/later", true);
  CO_ASSERT_EQ(later.code(), StatusCode::kNotFound);
  CO_ASSERT_TRUE((co_await en.clients[1]->GetChildren("/locks", true)).ok());
  auto listing = co_await en.clients[1]->ReadDirPlus("/locks", true);
  CO_ASSERT_TRUE(listing.ok() && listing->ok());
};

const auto ChangeEverything = [](ExpiryEnsemble& en) -> sim::Task<void> {
  CO_ASSERT_TRUE((co_await en.clients[0]->Set("/locks/w", Bytes("1"))).ok());
  CO_ASSERT_TRUE((co_await en.clients[0]->Create("/locks/later", {})).ok());
};

TEST(SessionExpiryTest, ClosedSessionLosesItsWatches) {
  ExpiryEnsemble e(/*session_timeout=*/0);
  std::vector<WatchEvent> seen0, seen1;
  e.clients[0]->SetWatchHandler(
      [&](const WatchEvent& ev) { seen0.push_back(ev); });
  e.clients[1]->SetWatchHandler(
      [&](const WatchEvent& ev) { seen1.push_back(ev); });
  sim::RunTask(e.sim, WatchEverything(e));
  sim::RunTask(e.sim, [](ExpiryEnsemble& en) -> sim::Task<void> {
    CO_ASSERT_OK(co_await en.clients[1]->Close());
  }(e));
  sim::RunTask(e.sim, ChangeEverything(e));
  e.sim.Run(e.sim.now() + sim::Ms(100));
  ASSERT_EQ(seen0.size(), 1u);  // the open session is still notified
  EXPECT_EQ(seen0[0].path, "/locks/w");
  EXPECT_TRUE(seen1.empty()) << seen1.size() << " event(s) for a closed "
                             << "session, first on " << seen1[0].path;
}

TEST(SessionExpiryTest, ExpiredSessionLosesItsWatches) {
  ExpiryEnsemble e(sim::Ms(300));
  e.clients[0]->StartHeartbeats(sim::Ms(100));
  std::vector<WatchEvent> seen1;
  e.clients[1]->SetWatchHandler(
      [&](const WatchEvent& ev) { seen1.push_back(ev); });
  sim::RunTask(e.sim, WatchEverything(e));
  // Client 1 goes silent but its node stays up, so it would still receive
  // any event sent to it.
  e.sim.Run(e.sim.now() + sim::Sec(1));
  sim::RunTask(e.sim, ChangeEverything(e));
  e.sim.Run(e.sim.now() + sim::Ms(100));
  EXPECT_TRUE(seen1.empty()) << seen1.size() << " event(s) for an expired "
                             << "session, first on " << seen1[0].path;
}

}  // namespace
}  // namespace dufs::zk
