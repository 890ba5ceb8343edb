// Figure 11 — memory usage as directories accumulate: the ZooKeeper server
// heap grows linearly (~417 MB per million znodes); the DUFS client and a
// dummy FUSE filesystem stay flat.
#include <cstdio>

#include "bench/harness.h"
#include "mdtest/testbed.h"
#include "vfs/memfs.h"

using namespace dufs;
using mdtest::BackendKind;
using mdtest::Testbed;
using mdtest::TestbedConfig;

int main(int argc, char** argv) {
  bench::Harness h("fig11_memory", argc, argv,
                   "[--millions=1.0] [--samples=10]");
  const double millions = h.flags().Double("millions", 1.0);
  const long samples = h.flags().Int("samples", 10);
  const std::size_t total =
      static_cast<std::size_t>(millions * 1'000'000.0);
  const std::size_t step = total / static_cast<std::size_t>(samples);

  // The paper runs everything on one node: 1 ZK server, 1 DUFS client.
  TestbedConfig config;
  config.zk_servers = 1;
  config.client_nodes = 1;
  config.backend = BackendKind::kMemFs;
  config.backend_instances = 1;
  config.enable_trace = h.tracing();
  Testbed tb(config);
  h.Arm(tb.obs());
  tb.MountAll();
  h.StartTimeline(tb.obs(), tb.sim());

  // Dummy FUSE baseline: a FUSE mount forwarding to a local filesystem.
  vfs::MemFs local(tb.sim(), "local");
  vfs::FuseMount dummy(tb.net().node(tb.client(0).node), local);

  std::printf("Figure 11: memory vs millions of directories created\n");
  std::printf("%-12s %14s %12s %14s\n", "dirs(M)", "Zookeeper(MB)",
              "DUFS(MB)", "DummyFUSE(MB)");

  const double mb = 1024.0 * 1024.0;
  bench::SeriesTable mem_table("dirs_k",
                               {"zookeeper_mb", "dufs_mb", "dummy_fuse_mb"});
  std::size_t created = 0;
  // Batch directory creation through the full stack, sampling at each step.
  for (long sample = 0; sample <= samples; ++sample) {
    if (sample > 0) {
      sim::RunTask(tb.sim(), [](Testbed& t, vfs::FuseMount& d,
                                std::size_t from,
                                std::size_t count) -> sim::Task<void> {
        auto& fuse = *t.client(0).fuse;
        // Fan the creates out over a two-level tree so no single znode has
        // millions of children (as mdtest does with its fan-out).
        for (std::size_t i = from; i < from + count; ++i) {
          const std::string parent = "/b" + std::to_string(i / 4096);
          if (i % 4096 == 0) {
            (void)co_await fuse.Mkdir(parent);
            (void)co_await d.Mkdir(parent);
          }
          const std::string path = parent + "/d" + std::to_string(i);
          auto st = co_await fuse.Mkdir(path);
          DUFS_CHECK(st.ok());
          (void)co_await d.Mkdir(path);
        }
      }(tb, dummy, created, step));
      created += step;
    }
    const double zk_mb = static_cast<double>(tb.ZkMemoryBytes()) / mb;
    const double dufs_mb =
        static_cast<double>(tb.client(0).dufs->EstimateMemoryBytes() +
                            tb.client(0).fuse->EstimateMemoryBytes()) /
        mb;
    const double dummy_mb =
        static_cast<double>(dummy.EstimateMemoryBytes()) / mb;
    std::printf("%-12.2f %14.1f %12.1f %14.1f\n",
                static_cast<double>(created) / 1e6, zk_mb, dufs_mb, dummy_mb);
    mem_table.AddRow(static_cast<long>(created / 1000),
                     {zk_mb, dufs_mb, dummy_mb});
  }

  const double per_znode =
      static_cast<double>(tb.ZkMemoryBytes()) / static_cast<double>(created);
  std::printf("\nZooKeeper bytes per znode: %.0f (paper: ~417 for 1M "
              "entries => 417 MB)\n", per_znode);

  h.Capture(tb.obs());
  h.metrics().AddValue("zk_bytes_per_znode", per_znode);
  h.metrics().AddTable("Fig 11: memory growth", mem_table);
  return h.Finish();
}
