// Ablation — the metadata hot path, layer by layer:
//
//   (a) parallel lookup fan-out: ReadDir of a wide directory issues its
//       per-child znode Gets concurrently (sim::WhenAll) instead of
//       sequentially;
//   (b) client metadata cache: repeated stats of hot paths are served
//       locally, cutting ZooKeeper requests-per-op (watch-invalidated, so
//       coherence is preserved — see DESIGN.md "Metadata fast path");
//   (c) leader group commit: concurrent creates share one quorum round and
//       one journal fsync, lifting write throughput at high client counts.
//
// Every experiment is a deterministic simulation (fixed --seed); MemFs
// back-ends keep the back-end cost out of the picture so the metadata path
// is the only variable.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "mdtest/workload.h"

using namespace dufs;
using mdtest::BackendKind;
using mdtest::MdtestConfig;
using mdtest::MdtestRunner;
using mdtest::Phase;
using mdtest::Target;
using mdtest::Testbed;
using mdtest::TestbedConfig;

namespace {

TestbedConfig BaseConfig(std::uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  config.zk_servers = 3;
  config.client_nodes = 2;
  config.backend = BackendKind::kMemFs;
  config.backend_instances = 2;
  return config;
}

// (a) ReadDir latency over a `width`-entry directory, sequential child
// lookups (fanout=1) vs concurrent (fanout=N).
double MeasureReadDirUs(std::uint64_t seed, std::size_t width,
                        std::size_t fanout) {
  auto config = BaseConfig(seed);
  config.dufs.lookup_fanout = fanout;
  // Pin the legacy readdir path: with compound ops the cold listing is one
  // ReadDirPlus RPC and the fan-out knob never engages, which would erase
  // the (a)-vs-(a) contrast this ablation measures (and shift its baseline).
  // The compound readdir has its own figure: bench/fig13_deep_tree.
  config.dufs.compound_ops = false;
  Testbed tb(config);
  tb.MountAll();
  double us = 0;
  sim::RunTask(tb.sim(), [](Testbed& t, std::size_t n,
                            double& out) -> sim::Task<void> {
    auto& writer = *t.client(0).dufs;
    DUFS_CHECK((co_await writer.Mkdir("/wide", 0755)).ok());
    for (std::size_t i = 0; i < n; ++i) {
      DUFS_CHECK(
          (co_await writer.Create("/wide/f" + std::to_string(i), 0644)).ok());
    }
    // Cold reader on the other node: every child Get goes to ZooKeeper.
    auto& reader = *t.client(1).dufs;
    const auto start = t.sim().now();
    auto entries = co_await reader.ReadDir("/wide");
    DUFS_CHECK(entries.ok());
    DUFS_CHECK(entries->size() == n + 0);
    out = static_cast<double>(t.sim().now() - start) / sim::kMicrosecond;
  }(tb, width, us));
  return us;
}

// (b) Requests-per-stat with the metadata cache on/off: `files` hot files,
// `rounds` stat sweeps over them from one client.
bench::HotPathCounters MeasureStats(std::uint64_t seed, bool cache,
                                    std::size_t files, std::size_t rounds) {
  auto config = BaseConfig(seed);
  config.dufs.enable_meta_cache = cache;
  Testbed tb(config);
  tb.MountAll();
  bench::HotPathCounters c;
  sim::RunTask(tb.sim(), [](Testbed& t, std::size_t nf, std::size_t nr,
                            bench::HotPathCounters& out) -> sim::Task<void> {
    auto& dufs = *t.client(0).dufs;
    for (std::size_t i = 0; i < nf; ++i) {
      DUFS_CHECK((co_await dufs.Create("/hot" + std::to_string(i), 0644)).ok());
    }
    const auto start_req = t.client(0).zk->requests_sent();
    const auto start_fo = t.client(0).zk->failovers();
    const auto start = t.sim().now();
    for (std::size_t r = 0; r < nr; ++r) {
      for (std::size_t i = 0; i < nf; ++i) {
        auto attr = co_await dufs.GetAttr("/hot" + std::to_string(i));
        DUFS_CHECK(attr.ok());
      }
    }
    out.ops = static_cast<double>(nf * nr);
    out.seconds =
        static_cast<double>(t.sim().now() - start) / sim::kSecond;
    out.zk_requests = t.client(0).zk->requests_sent() - start_req;
    out.zk_failovers = t.client(0).zk->failovers() - start_fo;
    const auto& stats = dufs.meta_cache().stats();
    out.cache_hits = stats.hits;
    out.cache_misses = stats.misses;
  }(tb, files, rounds, c));
  return c;
}

// (c) mdtest file-create throughput at `procs` processes, leader group
// commit on/off. `observe` (null when unobserved) is the harness observing
// this run.
bench::HotPathCounters MeasureCreates(std::uint64_t seed, bool group_commit,
                                      std::size_t procs, std::size_t items,
                                      bench::Harness* observe = nullptr) {
  auto config = BaseConfig(seed);
  config.client_nodes = 4;
  config.zk_group_commit = group_commit;
  config.enable_trace = observe != nullptr && observe->tracing();
  Testbed tb(config);
  if (observe != nullptr) observe->Arm(tb.obs());
  tb.MountAll();
  if (observe != nullptr) observe->StartTimeline(tb.obs(), tb.sim());
  MdtestConfig mc;
  mc.processes = procs;
  mc.items_per_proc = items;
  MdtestRunner runner(tb, mc);
  std::uint64_t req0 = 0, fo0 = 0;
  for (std::size_t i = 0; i < tb.client_count(); ++i) {
    req0 += tb.client(i).zk->requests_sent();
    fo0 += tb.client(i).zk->failovers();
  }
  auto results = runner.Run(Target::kDufs, {Phase::kFileCreate});
  bench::HotPathCounters c;
  c.ops = static_cast<double>(results[0].ops);
  c.seconds = results[0].seconds;
  c.errors = results[0].errors;
  for (std::size_t i = 0; i < tb.client_count(); ++i) {
    c.zk_requests += tb.client(i).zk->requests_sent();
    c.zk_failovers += tb.client(i).zk->failovers();
    const auto& stats = tb.client(i).dufs->meta_cache().stats();
    c.cache_hits += stats.hits;
    c.cache_misses += stats.misses;
  }
  c.zk_requests -= req0;
  c.zk_failovers -= fo0;
  if (observe != nullptr) observe->Capture(tb.obs());
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablation_fastpath", argc, argv,
                   "[--seed=N] [--width=64] [--files=32] [--rounds=8] "
                   "[--procs=128] [--items=10] [--ops=N]");
  const bench::Flags& flags = h.flags();
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  const auto width = static_cast<std::size_t>(flags.Int("width", 64));
  const auto files = static_cast<std::size_t>(flags.Int("files", 32));
  const auto rounds = static_cast<std::size_t>(flags.Int("rounds", 8));
  const auto procs = static_cast<std::size_t>(flags.Int("procs", 128));
  // --ops is a friendlier way to size experiment (c): total creates across
  // all processes; it overrides --items.
  const auto ops = static_cast<std::size_t>(flags.Int("ops", 0));
  const auto items = ops > 0
                         ? std::max<std::size_t>(1, ops / procs)
                         : static_cast<std::size_t>(flags.Int("items", 10));

  std::printf("Ablation: metadata fast path (seed=%llu)\n",
              static_cast<unsigned long long>(seed));

  std::printf("\n## (a) ReadDir fan-out — %zu-entry directory, cold cache\n",
              width);
  const double seq_us = MeasureReadDirUs(seed, width, 1);
  const double par_us = MeasureReadDirUs(seed, width, 32);
  std::printf("%-28s %12.1f us\n", "fanout=1 (sequential)", seq_us);
  std::printf("%-28s %12.1f us   (%.1fx faster)\n", "fanout=32 (WhenAll)",
              par_us, seq_us / par_us);

  std::printf("\n## (b) metadata cache — %zu hot files x %zu stat rounds\n",
              files, rounds);
  bench::PrintHotPathHeader();
  const auto cache_off = MeasureStats(seed, false, files, rounds);
  const auto cache_on = MeasureStats(seed, true, files, rounds);
  bench::PrintHotPathRow("cache=off", cache_off);
  bench::PrintHotPathRow("cache=on", cache_on);
  const double off_per_op =
      static_cast<double>(cache_off.zk_requests) / cache_off.ops;
  const double on_per_op =
      static_cast<double>(cache_on.zk_requests) / cache_on.ops;
  std::printf("zk requests per stat: %.3f -> %.3f (%.1fx fewer)\n",
              off_per_op, on_per_op, off_per_op / on_per_op);

  std::printf("\n## (c) leader group commit — mdtest file-create, "
              "%zu processes x %zu items\n",
              procs, items);
  bench::PrintHotPathHeader();
  const auto gc_off = MeasureCreates(seed, false, procs, items);
  // The trace, timeline, and incident engine (if requested) cover the
  // group_commit=on run — the configuration whose span chain (op → zk-rpc →
  // quorum-round → fsync-batch) the ablation is about.
  const auto gc_on = MeasureCreates(seed, true, procs, items, &h);
  bench::PrintHotPathRow("group_commit=off", gc_off);
  bench::PrintHotPathRow("group_commit=on", gc_on);
  h.PhaseErrors("group_commit=off file-create", gc_off.errors);
  h.PhaseErrors("group_commit=on file-create", gc_on.errors);
  std::printf("create throughput: %.0f -> %.0f ops/s (%.2fx)\n",
              gc_off.ops / gc_off.seconds, gc_on.ops / gc_on.seconds,
              (gc_on.ops / gc_on.seconds) / (gc_off.ops / gc_off.seconds));

  auto& out = h.metrics();
  out.AddValue("readdir_seq_us", seq_us);
  out.AddValue("readdir_par_us", par_us);
  out.AddCounters("cache=off", cache_off);
  out.AddCounters("cache=on", cache_on);
  out.AddCounters("group_commit=off", gc_off);
  out.AddCounters("group_commit=on", gc_on);

  auto& base = h.baseline();
  base.AddLowerBetter("readdir.seq.us", seq_us);
  base.AddLowerBetter("readdir.par.us", par_us);
  base.AddLowerBetter("stat.cache_off.zk_req_per_op", off_per_op);
  base.AddLowerBetter("stat.cache_on.zk_req_per_op", on_per_op);
  base.AddHigherBetter("create.gc_off.ops_per_s", gc_off.ops / gc_off.seconds);
  base.AddHigherBetter("create.gc_on.ops_per_s", gc_on.ops / gc_on.seconds);

  std::printf("\nTakeaway: each layer attacks a different serial term — "
              "(a) per-child RPC\nlatency, (b) repeated-lookup request "
              "volume, (c) per-proposal quorum and\nfsync cost. All three "
              "compose on the same DUFS client.\n");
  return h.Finish();
}
