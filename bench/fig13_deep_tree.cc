// Fig. 13 (ours) — server-side path resolution vs tree depth.
//
// mdtest-style create/stat/unlink sweep over deep directory chains, depth
// {2,4,8,16} x concurrent client processes, with the compound-op fast path
// (DESIGN.md §13) as the ablation axis:
//
//   --compound=on    one ResolvePath/ResolveCreate/ResolveDelete RPC per
//                    cold operation, whatever the depth;
//   --compound=off   the FUSE-faithful walk the paper's prototype pays:
//                    one znode round trip per path component, so cold
//                    per-op cost grows linearly with depth;
//   --compound=both  (default) runs the ablation and prints speedups.
//
// Every timed operation touches a *distinct* chain (pre-created untimed by
// a builder client on another node), so the worker's metadata cache is cold
// for every op — the per-op ZooKeeper request count is the pure depth
// dependence, which is the figure's point: flat at 1 with compound ops on,
// O(depth) off.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/log.h"
#include "mdtest/testbed.h"
#include "sim/gather.h"

using namespace dufs;
using mdtest::BackendKind;
using mdtest::Testbed;
using mdtest::TestbedConfig;

namespace {

struct PhaseCounters {
  bench::HotPathCounters create;
  bench::HotPathCounters stat;
  bench::HotPathCounters unlink;
};

// The unique depth-D directory for (phase tag, proc, item): components are
// /deep/<tag><proc>_<item>/l3/l4/.../lD — exactly `depth` levels.
std::string ChainDir(char tag, std::size_t proc, std::size_t item,
                     std::size_t depth) {
  std::string p = "/deep/";
  p.push_back(tag);
  p += std::to_string(proc) + "_" + std::to_string(item);
  for (std::size_t level = 3; level <= depth; ++level) {
    p += "/l" + std::to_string(level);
  }
  return p;
}

sim::Task<void> BuildChains(Testbed& t, char tag, std::size_t procs,  // dufs-lint: allow(coro-ref-param)
                            std::size_t items, std::size_t depth,
                            bool with_file) {
  auto& builder = *t.client(0).dufs;
  auto mkdir_ok = [](Status st) {
    return st.ok() || st.code() == StatusCode::kAlreadyExists;
  };
  DUFS_CHECK(mkdir_ok(co_await builder.Mkdir("/deep", 0755)));
  for (std::size_t i = 0; i < procs; ++i) {
    for (std::size_t j = 0; j < items; ++j) {
      // Create the chain level by level (Mkdir has no -p).
      const std::string leaf = ChainDir(tag, i, j, depth);
      std::size_t pos = leaf.find('/', 6);  // after "/deep/"
      while (pos != std::string::npos) {
        DUFS_CHECK(mkdir_ok(co_await builder.Mkdir(leaf.substr(0, pos), 0755)));
        pos = leaf.find('/', pos + 1);
      }
      DUFS_CHECK(mkdir_ok(co_await builder.Mkdir(leaf, 0755)));
      if (with_file) {
        DUFS_CHECK((co_await builder.Create(leaf + "/f", 0644)).ok());
      }
    }
  }
}

enum class DeepOp { kCreate, kStat, kUnlink };

// One timed phase: `procs` concurrent processes on the worker node, each
// performing `items` operations against its own cold chains.
bench::HotPathCounters RunPhase(Testbed& tb, DeepOp op, char tag,
                                std::size_t procs, std::size_t items,
                                std::size_t depth) {
  bench::HotPathCounters c;
  sim::RunTask(tb.sim(), [](Testbed& t, DeepOp what, char tg, std::size_t np,
                            std::size_t ni, std::size_t d,
                            bench::HotPathCounters& out) -> sim::Task<void> {
    auto& worker = *t.client(1).dufs;
    const auto cache0 = worker.meta_cache().stats();
    const auto req0 = t.client(1).zk->requests_sent();
    const auto fo0 = t.client(1).zk->failovers();
    const auto start = t.sim().now();
    auto proc_body = [](Testbed& tb2, DeepOp w, char tg2, std::size_t proc,  // dufs-lint: allow(coro-capture-ref)
                        std::size_t n, std::size_t dd) -> sim::Task<void> {
      auto& fs = *tb2.client(1).dufs;
      for (std::size_t j = 0; j < n; ++j) {
        const std::string dir = ChainDir(tg2, proc, j, dd);
        switch (w) {
          case DeepOp::kCreate:
            DUFS_CHECK((co_await fs.Create(dir + "/f", 0644)).ok());
            break;
          case DeepOp::kStat:
            DUFS_CHECK((co_await fs.GetAttr(dir)).ok());
            break;
          case DeepOp::kUnlink:
            DUFS_CHECK((co_await fs.Unlink(dir + "/f")).ok());
            break;
        }
      }
    };
    std::vector<sim::Task<void>> tasks;
    tasks.reserve(np);
    for (std::size_t i = 0; i < np; ++i) {
      tasks.push_back(proc_body(t, what, tg, i, ni, d));
    }
    co_await sim::WhenAll(std::move(tasks));
    out.ops = static_cast<double>(np * ni);
    out.seconds = static_cast<double>(t.sim().now() - start) / sim::kSecond;
    out.zk_requests = t.client(1).zk->requests_sent() - req0;
    out.zk_failovers = t.client(1).zk->failovers() - fo0;
    const auto& stats = t.client(1).dufs->meta_cache().stats();
    out.cache_hits = stats.hits - cache0.hits;
    out.cache_misses = stats.misses - cache0.misses;
  }(tb, op, tag, procs, items, depth, c));
  return c;
}

// One measured cell: fresh testbed, pre-built chains, three timed phases.
// `observe` (null when unobserved) is the harness observing this cell.
PhaseCounters MeasureCell(std::uint64_t seed, std::size_t depth,
                          std::size_t procs, std::size_t items, bool compound,
                          bench::Harness* observe = nullptr) {
  TestbedConfig config;
  config.seed = seed;
  config.zk_servers = 3;
  config.client_nodes = 2;  // 0 = untimed builder, 1 = timed cold worker
  config.backend = BackendKind::kMemFs;
  config.backend_instances = 2;
  config.dufs.compound_ops = compound;
  config.enable_trace = observe != nullptr && observe->tracing();
  Testbed tb(config);
  if (observe != nullptr) observe->Arm(tb.obs());
  tb.MountAll();
  if (observe != nullptr) observe->StartTimeline(tb.obs(), tb.sim());

  // Stat and unlink phases need their chains (and files) in advance; the
  // create phase's chains exist but its files do not.
  sim::RunTask(tb.sim(), [](Testbed& t, std::size_t np, std::size_t ni,
                            std::size_t d) -> sim::Task<void> {
    co_await BuildChains(t, 'c', np, ni, d, /*with_file=*/false);
    co_await BuildChains(t, 's', np, ni, d, /*with_file=*/false);
    co_await BuildChains(t, 'u', np, ni, d, /*with_file=*/true);
  }(tb, procs, items, depth));

  PhaseCounters out;
  out.create = RunPhase(tb, DeepOp::kCreate, 'c', procs, items, depth);
  out.stat = RunPhase(tb, DeepOp::kStat, 's', procs, items, depth);
  out.unlink = RunPhase(tb, DeepOp::kUnlink, 'u', procs, items, depth);

  if (observe != nullptr) observe->Capture(tb.obs());
  return out;
}

double OpsPerSec(const bench::HotPathCounters& c) {
  return c.seconds > 0 ? c.ops / c.seconds : 0;
}

double ZkPerOp(const bench::HotPathCounters& c) {
  return c.ops > 0 ? static_cast<double>(c.zk_requests) / c.ops : 0;
}

std::string CellLabel(const char* phase, std::size_t depth, std::size_t procs,
                      bool compound) {
  return std::string(phase) + " d=" + std::to_string(depth) +
         " p=" + std::to_string(procs) +
         (compound ? " compound=on" : " compound=off");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("fig13_deep_tree", argc, argv,
                   "[--seed=N] [--depths=2,4,8,16] [--procs=1,8] "
                   "[--items=4] [--compound=on|off|both]");
  const bench::Flags& flags = h.flags();
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  const auto depths = flags.IntList("depths", {2, 4, 8, 16});
  const auto procs_list = flags.IntList("procs", {1, 8});
  const auto items = static_cast<std::size_t>(flags.Int("items", 4));
  const std::string mode = flags.Str("compound", "both");
  const bool run_on = mode == "both" || mode == "on";
  const bool run_off = mode == "both" || mode == "off";
  DUFS_CHECK(run_on || run_off);

  const std::size_t max_depth =
      static_cast<std::size_t>(*std::max_element(depths.begin(), depths.end()));
  const std::size_t max_procs = static_cast<std::size_t>(
      *std::max_element(procs_list.begin(), procs_list.end()));
  const std::size_t min_depth =
      static_cast<std::size_t>(*std::min_element(depths.begin(), depths.end()));

  std::printf("Fig. 13: deep-tree metadata ops vs path depth (seed=%llu, "
              "items/proc=%zu)\n",
              static_cast<unsigned long long>(seed), items);

  auto& metrics = h.metrics();
  // Indexed [depth][procs], filled per mode below.
  struct Cell {
    PhaseCounters on;
    PhaseCounters off;
  };
  std::vector<std::vector<Cell>> cells(
      depths.size(), std::vector<Cell>(procs_list.size()));

  for (std::size_t di = 0; di < depths.size(); ++di) {
    const auto depth = static_cast<std::size_t>(depths[di]);
    DUFS_CHECK(depth >= 2);
    for (std::size_t pi = 0; pi < procs_list.size(); ++pi) {
      const auto procs = static_cast<std::size_t>(procs_list[pi]);
      // The trace/timeline/incident sinks cover the compound=on cell at the
      // sweep's corner (max depth, max procs) — the configuration §13 and
      // EXPERIMENTS.md attribute.
      const bool instrumented = depth == max_depth && procs == max_procs;
      if (run_on) {
        cells[di][pi].on =
            MeasureCell(seed, depth, procs, items, /*compound=*/true,
                        instrumented ? &h : nullptr);
      }
      if (run_off) {
        cells[di][pi].off =
            MeasureCell(seed, depth, procs, items, /*compound=*/false);
      }
    }
  }

  const char* phase_names[] = {"create", "stat", "unlink"};
  auto phase_of = [](const PhaseCounters& p,
                     std::size_t idx) -> const bench::HotPathCounters& {
    return idx == 0 ? p.create : (idx == 1 ? p.stat : p.unlink);
  };

  for (std::size_t pi = 0; pi < procs_list.size(); ++pi) {
    for (std::size_t ph = 0; ph < 3; ++ph) {
      std::vector<std::string> series;
      if (run_on) {
        series.push_back("on ops/s");
        series.push_back("on zk/op");
      }
      if (run_off) {
        series.push_back("off ops/s");
        series.push_back("off zk/op");
      }
      bench::SeriesTable table("depth", series);
      for (std::size_t di = 0; di < depths.size(); ++di) {
        std::vector<double> row;
        if (run_on) {
          const auto& c = phase_of(cells[di][pi].on, ph);
          row.push_back(OpsPerSec(c));
          row.push_back(ZkPerOp(c));
        }
        if (run_off) {
          const auto& c = phase_of(cells[di][pi].off, ph);
          row.push_back(OpsPerSec(c));
          row.push_back(ZkPerOp(c));
        }
        table.AddRow(depths[di], std::move(row));
      }
      const std::string title = std::string(phase_names[ph]) + ", procs=" +
                                std::to_string(procs_list[pi]) +
                                " (cold cache)";
      table.Print(title);
      metrics.AddTable(title, table);
    }
  }

  // Per-cell counter rows for the metrics export (zk/op, cache behaviour).
  for (std::size_t di = 0; di < depths.size(); ++di) {
    for (std::size_t pi = 0; pi < procs_list.size(); ++pi) {
      for (std::size_t ph = 0; ph < 3; ++ph) {
        const auto depth = static_cast<std::size_t>(depths[di]);
        const auto procs = static_cast<std::size_t>(procs_list[pi]);
        if (run_on) {
          metrics.AddCounters(CellLabel(phase_names[ph], depth, procs, true),
                              phase_of(cells[di][pi].on, ph));
        }
        if (run_off) {
          metrics.AddCounters(CellLabel(phase_names[ph], depth, procs, false),
                              phase_of(cells[di][pi].off, ph));
        }
      }
    }
  }

  // Headline numbers at the sweep corner (max depth, max procs).
  const std::size_t dmax_i = [&] {
    for (std::size_t i = 0; i < depths.size(); ++i) {
      if (static_cast<std::size_t>(depths[i]) == max_depth) return i;
    }
    return std::size_t{0};
  }();
  const std::size_t dmin_i = [&] {
    for (std::size_t i = 0; i < depths.size(); ++i) {
      if (static_cast<std::size_t>(depths[i]) == min_depth) return i;
    }
    return std::size_t{0};
  }();
  const Cell& corner = cells[dmax_i][procs_list.size() - 1];
  const Cell& shallow = cells[dmin_i][procs_list.size() - 1];

  if (run_on) {
    // Depth independence: cold per-op ZooKeeper round trips must be flat in
    // depth with compound ops on (the walk ablation grows linearly).
    const double flat_stat =
        ZkPerOp(shallow.on.stat) > 0
            ? ZkPerOp(corner.on.stat) / ZkPerOp(shallow.on.stat)
            : 0;
    std::printf("\ncompound=on zk-req/op stat d=%zu vs d=%zu: %.3f vs %.3f "
                "(ratio %.2f)\n",
                max_depth, min_depth, ZkPerOp(corner.on.stat),
                ZkPerOp(shallow.on.stat), flat_stat);
    DUFS_CHECK(flat_stat <= 1.5);
  }
  if (run_on && run_off) {
    const double stat_speedup =
        OpsPerSec(corner.on.stat) / OpsPerSec(corner.off.stat);
    const double create_speedup =
        OpsPerSec(corner.on.create) / OpsPerSec(corner.off.create);
    const double unlink_speedup =
        OpsPerSec(corner.on.unlink) / OpsPerSec(corner.off.unlink);
    std::printf("d=%zu p=%zu speedup (on/off): stat %.2fx, create %.2fx, "
                "unlink %.2fx\n",
                max_depth, max_procs, stat_speedup, create_speedup,
                unlink_speedup);
    if (max_depth >= 16) {
      // The acceptance bar: depth-16 stat/create at least double the
      // per-component-walk ablation. Shallower sweeps skip it — create is
      // dominated by the replicated write either way, so the walk's few
      // extra reads legitimately buy less than 2x below depth ~16.
      DUFS_CHECK(stat_speedup >= 2.0);
      DUFS_CHECK(create_speedup >= 2.0);
    }
  }

  auto& base = h.baseline();
  const auto add_phase = [&](const char* name,
                             const bench::HotPathCounters& on,
                             const bench::HotPathCounters& off) {
    const std::string prefix(name);
    if (run_on) {
      base.AddHigherBetter(prefix + ".compound.ops_per_s", OpsPerSec(on));
      base.AddLowerBetter(prefix + ".compound.zk_per_op", ZkPerOp(on));
    }
    if (run_off) {
      base.AddHigherBetter(prefix + ".walk.ops_per_s", OpsPerSec(off));
      base.AddLowerBetter(prefix + ".walk.zk_per_op", ZkPerOp(off));
    }
    if (run_on && run_off) {
      base.AddHigherBetter(prefix + ".speedup", OpsPerSec(on) / OpsPerSec(off));
    }
  };
  add_phase("create", corner.on.create, corner.off.create);
  add_phase("stat", corner.on.stat, corner.off.stat);
  add_phase("unlink", corner.on.unlink, corner.off.unlink);
  if (run_on && ZkPerOp(shallow.on.stat) > 0) {
    base.AddLowerBetter("stat.compound.zk_per_op_flatness",
                        ZkPerOp(corner.on.stat) / ZkPerOp(shallow.on.stat));
  }

  std::printf("\nTakeaway: with server-side resolution the metadata service "
              "answers a cold\ndeep-path op in one round trip, so cost is "
              "flat in depth; the per-component\nwalk the paper's prototype "
              "pays grows linearly and falls behind by depth 8.\n");
  return h.Finish();
}
