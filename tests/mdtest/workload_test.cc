#include "mdtest/workload.h"

#include <gtest/gtest.h>

namespace dufs::mdtest {
namespace {

TestbedConfig SmallConfig(BackendKind backend) {
  TestbedConfig config;
  config.zk_servers = 3;
  config.client_nodes = 4;
  config.backend = backend;
  config.backend_instances = 2;
  return config;
}

TEST(TestbedTest, ClientPlacementFollowsDufsConfig) {
  for (const char* policy : {"md5-mod-n", "consistent-hash"}) {
    TestbedConfig config = SmallConfig(BackendKind::kMemFs);
    config.dufs.placement = policy;
    Testbed tb(config);
    for (std::size_t i = 0; i < config.client_nodes; ++i) {
      EXPECT_EQ(tb.client(i).dufs->placement().name(), policy) << i;
    }
  }
}

TEST(MdtestTest, AllPhasesRunCleanlyOnDufs) {
  Testbed tb(SmallConfig(BackendKind::kLustre));
  tb.MountAll();
  MdtestConfig mc;
  mc.processes = 16;
  mc.items_per_proc = 10;
  MdtestRunner runner(tb, mc);
  auto results = runner.Run(Target::kDufs);
  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) {
    EXPECT_EQ(r.errors, 0u) << PhaseName(r.phase);
    EXPECT_EQ(r.ops, 160u) << PhaseName(r.phase);
    EXPECT_GT(r.ops_per_sec, 0) << PhaseName(r.phase);
  }
}

TEST(MdtestTest, AllPhasesRunCleanlyOnBaseline) {
  Testbed tb(SmallConfig(BackendKind::kLustre));
  tb.MountAll();
  MdtestConfig mc;
  mc.processes = 16;
  mc.items_per_proc = 10;
  MdtestRunner runner(tb, mc);
  auto results = runner.Run(Target::kBaseline);
  for (const auto& r : results) {
    EXPECT_EQ(r.errors, 0u) << PhaseName(r.phase);
  }
}

TEST(MdtestTest, PhasesComposeCreateThenRemove) {
  Testbed tb(SmallConfig(BackendKind::kMemFs));
  tb.MountAll();
  MdtestConfig mc;
  mc.processes = 8;
  mc.items_per_proc = 5;
  MdtestRunner runner(tb, mc);
  // Running the standard order twice must also be clean: remove phases
  // leave the tree empty for the second round.
  for (int round = 0; round < 2; ++round) {
    auto results = runner.Run(Target::kDufs);
    for (const auto& r : results) {
      EXPECT_EQ(r.errors, 0u) << "round " << round << " "
                              << PhaseName(r.phase);
    }
  }
}

TEST(MdtestTest, StatPhasesAreReadOnly) {
  Testbed tb(SmallConfig(BackendKind::kMemFs));
  tb.MountAll();
  MdtestConfig mc;
  mc.processes = 8;
  mc.items_per_proc = 5;
  MdtestRunner runner(tb, mc);
  (void)runner.Run(Target::kDufs, {Phase::kDirCreate});
  auto stat1 = runner.Run(Target::kDufs, {Phase::kDirStat});
  auto stat2 = runner.Run(Target::kDufs, {Phase::kDirStat});
  EXPECT_EQ(stat1[0].errors, 0u);
  EXPECT_EQ(stat2[0].errors, 0u);
}

TEST(MdtestTest, DufsDirStatFasterThanBaselineAtScale) {
  // The paper's headline direction (Fig. 10c): DUFS directory stats are
  // served by the (here 3-server) coordination service and beat the single
  // Lustre MDS under many client processes.
  Testbed tb(SmallConfig(BackendKind::kLustre));
  tb.MountAll();
  MdtestConfig mc;
  mc.processes = 128;
  mc.items_per_proc = 20;
  MdtestRunner runner(tb, mc);
  (void)runner.Run(Target::kDufs, {Phase::kDirCreate});
  auto dufs = runner.Run(Target::kDufs, {Phase::kDirStat});
  (void)runner.Run(Target::kBaseline, {Phase::kDirCreate});
  auto baseline = runner.Run(Target::kBaseline, {Phase::kDirStat});
  EXPECT_EQ(dufs[0].errors, 0u);
  EXPECT_EQ(baseline[0].errors, 0u);
  EXPECT_GT(dufs[0].ops_per_sec, baseline[0].ops_per_sec);
}

}  // namespace
}  // namespace dufs::mdtest
