// Figure 7 — raw coordination-service throughput for the four basic
// operations (zoo_create / zoo_delete / zoo_set / zoo_get), varying the
// number of client processes and the ensemble size (1/4/8 servers).
//
// Expected shape (paper §V-A): mutation throughput FALLS as servers are
// added (quorum replication through the leader), read throughput RISES
// (each server answers its own sessions locally).
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "net/rpc.h"
#include "obs/obs.h"
#include "sim/task.h"
#include "zk/client.h"
#include "zk/server.h"

namespace dufs {
namespace {

struct RawEnsemble {
  // Declared before everything that holds metric/span handles into it, so
  // it is destroyed last (same layout rule as mdtest::Testbed).
  obs::Observability obs;
  sim::Simulation sim;
  net::Network net{sim};
  zk::ZkEnsembleConfig config;
  std::vector<std::unique_ptr<net::RpcEndpoint>> server_eps;
  std::vector<std::unique_ptr<zk::ZkServer>> servers;
  std::vector<std::unique_ptr<net::RpcEndpoint>> client_eps;
  std::vector<std::unique_ptr<zk::ZkClient>> clients;

  RawEnsemble(std::size_t n_servers, std::size_t n_client_nodes,
              bool enable_trace = false) {
    obs.tracer().Bind(&sim);
    obs.tracer().SetEnabled(enable_trace);
    obs.BindIncidents(&sim);
    net.AttachObs(&obs);
    for (std::size_t i = 0; i < n_servers; ++i) {
      config.servers.push_back(net.AddNode("zk" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < n_servers; ++i) {
      server_eps.push_back(
          std::make_unique<net::RpcEndpoint>(net, config.servers[i]));
      servers.push_back(
          std::make_unique<zk::ZkServer>(*server_eps[i], config, i));
      servers[i]->AttachObs(obs.Node("zk" + std::to_string(i)));
      servers[i]->Start();
    }
    for (std::size_t i = 0; i < n_client_nodes; ++i) {
      const auto node = net.AddNode("client" + std::to_string(i));
      client_eps.push_back(std::make_unique<net::RpcEndpoint>(net, node));
      zk::ZkClientConfig cc;
      cc.servers = config.servers;
      cc.attach_index = i;
      clients.push_back(std::make_unique<zk::ZkClient>(*client_eps[i], cc));
      clients[i]->AttachObs(obs.Node("client" + std::to_string(i)));
    }
    sim::RunTask(sim, [](RawEnsemble& e) -> sim::Task<void> {
      for (auto& c : e.clients) {
        auto st = co_await c->Connect();
        DUFS_CHECK(st.ok());
      }
    }(*this));
  }
  ~RawEnsemble() { sim.Shutdown(); }
};

enum class ZkOp { kCreate, kDelete, kSet, kGet };

constexpr const char* kOpNames[] = {"zoo_create", "zoo_delete", "zoo_set",
                                    "zoo_get"};

// One measurement point: `procs` processes over 8 client nodes, each doing
// `items` back-to-back ops. Returns aggregate ops/sec. `observe` (null for
// every point but one) is the harness observing this point.
double Measure(ZkOp op, std::size_t n_servers, std::size_t procs,
               std::size_t items, std::size_t client_nodes,
               bench::Harness* observe = nullptr) {
  RawEnsemble e(n_servers, client_nodes,
                observe != nullptr && observe->tracing());
  if (observe != nullptr) {
    observe->Arm(e.obs);
    observe->StartTimeline(e.obs, e.sim);
  }
  auto path_of = [](std::size_t proc, std::size_t i) {
    return "/bench/p" + std::to_string(proc) + "-n" + std::to_string(i);
  };
  // Untimed setup: parent znode; existing nodes for delete/set/get.
  sim::RunTask(e.sim, [](RawEnsemble& en, ZkOp o, std::size_t n_procs,
                         std::size_t n_items,
                         decltype(path_of)& pof) -> sim::Task<void> {
    (void)co_await en.clients[0]->Create("/bench", {});
    if (o == ZkOp::kCreate) co_return;
    const std::size_t per_node =
        (n_procs + en.clients.size() - 1) / en.clients.size();
    sim::Barrier done(en.sim, en.clients.size() + 1);
    for (std::size_t c = 0; c < en.clients.size(); ++c) {
      en.sim.Spawn([](RawEnsemble& e2, std::size_t node, std::size_t pn,
                      std::size_t n_procs2, std::size_t n_items2,
                      decltype(path_of)& pof2,
                      sim::Barrier b) -> sim::Task<void> {
        for (std::size_t p = node * pn;
             p < std::min((node + 1) * pn, n_procs2); ++p) {
          for (std::size_t i = 0; i < n_items2; ++i) {
            std::vector<std::uint8_t> data{1, 2, 3, 4};
            (void)co_await e2.clients[node]->Create(pof2(p, i),
                                                    std::move(data));
          }
        }
        co_await b.Arrive();
      }(en, c, per_node, n_procs, n_items, pof, done));
    }
    co_await done.Arrive();
  }(e, op, procs, items, path_of));

  const auto start = e.sim.now();
  sim::RunTask(e.sim, [](RawEnsemble& en, ZkOp o, std::size_t n_procs,
                         std::size_t n_items,
                         decltype(path_of)& pof) -> sim::Task<void> {
    sim::Barrier done(en.sim, n_procs + 1);
    for (std::size_t p = 0; p < n_procs; ++p) {
      en.sim.Spawn([](RawEnsemble& e2, ZkOp o2, std::size_t proc,
                      std::size_t n, decltype(path_of)& pof2,
                      sim::Barrier b) -> sim::Task<void> {
        auto& client = *e2.clients[proc % e2.clients.size()];
        for (std::size_t i = 0; i < n; ++i) {
          switch (o2) {
            case ZkOp::kCreate: {
              std::vector<std::uint8_t> data{1, 2, 3, 4};
              (void)co_await client.Create(pof2(proc, i), std::move(data));
              break;
            }
            case ZkOp::kDelete:
              (void)co_await client.Delete(pof2(proc, i));
              break;
            case ZkOp::kSet: {
              std::vector<std::uint8_t> data{9, 9, 9, 9};
              (void)co_await client.Set(pof2(proc, i), std::move(data));
              break;
            }
            case ZkOp::kGet:
              (void)co_await client.Get(pof2(proc, i % 4));
              break;
          }
        }
        co_await b.Arrive();
      }(en, o, p, n_items, pof, done));
    }
    co_await done.Arrive();
  }(e, op, procs, items, path_of));

  const double secs =
      static_cast<double>(e.sim.now() - start) / sim::kSecond;
  if (observe != nullptr) observe->Capture(e.obs);
  return static_cast<double>(procs * items) / secs;
}

}  // namespace
}  // namespace dufs

int main(int argc, char** argv) {
  using namespace dufs;
  bench::Harness h("fig07_zk_throughput", argc, argv,
                   "[--procs=8,16,...] [--items=N] [--servers=1,4,8] "
                   "[--client-nodes=8]");
  const auto procs = h.flags().IntList("procs", {8, 16, 32, 64, 128, 192, 256});
  const auto servers = h.flags().IntList("servers", {1, 4, 8});
  const auto items = static_cast<std::size_t>(h.flags().Int("items", 40));
  const auto nodes = static_cast<std::size_t>(h.flags().Int("client-nodes", 8));

  std::printf("Figure 7: ZooKeeper throughput for basic operations\n");
  std::printf("(ops/sec; %zu ops/process; 8 client nodes)\n", items);
  for (int op = 0; op < 4; ++op) {
    std::vector<std::string> series;
    series.reserve(servers.size());
    for (long s : servers) {
      series.push_back(std::to_string(s) + " ZK server" + (s > 1 ? "s" : ""));
    }
    bench::SeriesTable table("procs", series);
    for (std::size_t pi = 0; pi < procs.size(); ++pi) {
      const long p = procs[pi];
      std::vector<double> row;
      for (std::size_t si = 0; si < servers.size(); ++si) {
        const long s = servers[si];
        // Trace/timeline/registry follow the very last measurement point
        // (zoo_get, largest ensemble, most processes).
        const bool observed = op == 3 && pi + 1 == procs.size() &&
                              si + 1 == servers.size();
        row.push_back(Measure(static_cast<ZkOp>(op),
                              static_cast<std::size_t>(s),
                              static_cast<std::size_t>(p), items, nodes,
                              observed ? &h : nullptr));
      }
      table.AddRow(p, std::move(row));
    }
    const std::string title = std::string("Fig 7") +
                              static_cast<char>('a' + op) + ": " +
                              kOpNames[op];
    table.Print(title);
    h.metrics().AddTable(title, table);
  }
  return h.Finish();
}
