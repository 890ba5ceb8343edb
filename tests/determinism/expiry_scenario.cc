// Cross-process determinism scenario for the ZooKeeper paths that walk a hash
// container into replicated state or snapshot bytes. Sixteen sessions on one
// server each own an ephemeral under a parent of their own. Every replica's
// snapshot is taken while all sixteen are live (Database::Snapshot writes the
// session set), then the sixteen clients crash together and expire in one
// sweep of ZkServer::SessionExpiryLoop, so the order it issues their
// CloseSession txns in is each parent's pzxid. It prints the snapshot
// digests, the pzxids and every replica's Database::Fingerprint.
// tests/determinism/stdout_twice.cmake runs it in two processes, whose hash
// salts differ (common/hash.h), and requires the same output. Exits 1 when
// the scenario itself goes wrong (a failed op, a surviving ephemeral).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/md5.h"
#include "net/rpc.h"
#include "sim/task.h"
#include "zk/client.h"
#include "zk/server.h"

namespace dufs::zk {
namespace {

constexpr std::size_t kServers = 3;
constexpr std::size_t kClients = 16;

std::string Parent(std::size_t i) { return "/s" + std::to_string(i); }

struct Scenario {
  sim::Simulation sim{1};
  net::Network net{sim};
  ZkEnsembleConfig config;
  std::vector<std::unique_ptr<net::RpcEndpoint>> server_eps;
  std::vector<std::unique_ptr<ZkServer>> servers;
  std::vector<std::unique_ptr<net::RpcEndpoint>> client_eps;
  std::vector<std::unique_ptr<ZkClient>> clients;

  Scenario() {
    config.session_timeout = sim::Ms(300);
    for (std::size_t i = 0; i < kServers; ++i) {
      config.servers.push_back(net.AddNode("zk" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < kServers; ++i) {
      server_eps.push_back(
          std::make_unique<net::RpcEndpoint>(net, config.servers[i]));
      servers.push_back(std::make_unique<ZkServer>(*server_eps[i], config, i));
      servers[i]->Start();
    }
    for (std::size_t i = 0; i < kClients; ++i) {
      const auto node = net.AddNode("client" + std::to_string(i));
      client_eps.push_back(std::make_unique<net::RpcEndpoint>(net, node));
      ZkClientConfig cc;
      cc.servers = config.servers;
      cc.attach_index = 1;  // every session expires on the same follower
      clients.push_back(std::make_unique<ZkClient>(*client_eps[i], cc));
    }
  }
  ~Scenario() { sim.Shutdown(); }
};

int Run() {
  Scenario s;
  const bool populated =
      sim::RunTask(s.sim, [](Scenario& sc) -> sim::Task<bool> {
        for (std::size_t i = 0; i < kClients; ++i) {
          ZkClient& client = *sc.clients[i];
          if (!(co_await client.Connect()).ok()) co_return false;
          if (!(co_await client.Create(Parent(i), {})).ok()) co_return false;
          auto eph = co_await client.Create(Parent(i) + "/e", {},
                                            CreateMode::kEphemeral);
          if (!eph.ok()) co_return false;
        }
        co_return true;
      }(s));
  if (!populated) {
    std::printf("populating the ensemble failed\n");
    return 1;
  }
  s.sim.Run(s.sim.now() + sim::Ms(50));  // commits reach every replica
  for (const auto& server : s.servers) {
    const auto snap = server->TakeSnapshot();
    std::printf("snapshot %s\n",
                Md5::Hash(snap.data(), snap.size()).ToHex().c_str());
  }

  for (const auto& ep : s.client_eps) ep->node().Crash();
  s.sim.Run(s.sim.now() + sim::Sec(2));

  int rc = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    for (const auto& server : s.servers) {
      if (server->db().tree().Exists(Parent(i) + "/e")) {
        std::printf("%s/e survived its session\n", Parent(i).c_str());
        rc = 1;
      }
    }
    const auto stat = s.servers[0]->db().tree().Stat(Parent(i));
    std::printf("%s pzxid %llu\n", Parent(i).c_str(),
                stat.ok() ? static_cast<unsigned long long>(stat->pzxid) : 0);
  }
  for (const auto& server : s.servers) {
    std::printf("fingerprint %016llx\n",
                static_cast<unsigned long long>(server->db().Fingerprint()));
  }
  return rc;
}

}  // namespace
}  // namespace dufs::zk

int main() { return dufs::zk::Run(); }
