// bench::Harness exit status: every export (metrics, trace, baseline,
// profile) that cannot be written, and every flag nothing read, makes
// Finish() return 1, and a run whose exports all land returns 0.
#include "bench/harness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sim/simulation.h"

namespace dufs::bench {
namespace {

namespace fs = std::filesystem;

// A path inside a directory that does not exist.
std::string Missing(const std::string& file) {
  const fs::path dir = fs::path(::testing::TempDir()) / "harness_no_such_dir";
  fs::remove_all(dir);
  return (dir / file).string();
}

// Runs a harness over `args` ("prog" is prepended) with one observed, empty
// simulated run and one baseline metric; returns Finish()'s exit code.
int RunHarness(std::vector<std::string> args) {
  std::vector<char*> argv;
  std::string prog = "prog";
  argv.push_back(prog.data());
  for (auto& a : args) argv.push_back(a.data());
  Harness h("harness_test", static_cast<int>(argv.size()), argv.data(), "");
  obs::Observability obs;
  sim::Simulation sim(1);
  obs.tracer().Bind(&sim);
  obs.tracer().SetEnabled(h.tracing());
  obs.BindIncidents(&sim);
  h.Arm(obs);
  h.Capture(obs);
  h.metrics().AddValue("x", 1.0);
  h.baseline().AddHigherBetter("x.ops_per_s", 1.0);
  return h.Finish();
}

TEST(HarnessTest, WritesEveryExportAndExitsZero) {
  const fs::path dir = fs::path(::testing::TempDir()) / "harness_exports";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto path = [&dir](const char* f) { return (dir / f).string(); };
  EXPECT_EQ(RunHarness({"--metrics-json=" + path("m.json"),
                        "--trace=" + path("t.json"),
                        "--baseline=" + path("b.json"),
                        "--profile=" + path("p.folded"), "--profile-every=1",
                        "--slo=create:2ms:0.01",
                        "--flight-dump-dir=" + path("dumps/")}),
            0);
  for (const char* f : {"m.json", "t.json", "b.json", "p.folded", "dumps"}) {
    EXPECT_TRUE(fs::exists(dir / f)) << f;
  }
  fs::remove_all(dir);
}

TEST(HarnessTest, MetricsIntoMissingDirectoryExitsOne) {
  EXPECT_EQ(RunHarness({"--metrics-json=" + Missing("m.json")}), 1);
}

TEST(HarnessTest, TraceIntoMissingDirectoryExitsOne) {
  EXPECT_EQ(RunHarness({"--trace=" + Missing("t.json")}), 1);
}

TEST(HarnessTest, BaselineIntoMissingDirectoryExitsOne) {
  EXPECT_EQ(RunHarness({"--baseline=" + Missing("b.json")}), 1);
}

TEST(HarnessTest, ProfileIntoMissingDirectoryExitsOne) {
  EXPECT_EQ(RunHarness({"--profile=" + Missing("p.folded"),
                        "--profile-every=1"}),
            1);
}

TEST(HarnessTest, FailExitsOne) {
  std::string prog = "prog";
  char* argv[] = {prog.data()};
  Harness h("harness_test", 1, argv, "");
  h.Fail("phase errors");
  EXPECT_EQ(h.Finish(), 1);
}

// A flag no reader asked for (a typo, or one this bench does not take)
// fails the run and is named, so a mistyped sweep is never taken for the
// one asked for.
TEST(HarnessTest, UnreadFlagExitsOneAndIsNamed) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(RunHarness({"--quick", "--profile-hz=97"}), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown flag --quick"), std::string::npos) << err;
  EXPECT_EQ(err.find("profile-hz"), std::string::npos) << err;
}

TEST(HarnessDeathTest, MalformedSloIsAUsageError) {
  EXPECT_EXIT(RunHarness({"--slo=create:2ms"}), testing::ExitedWithCode(2),
              "want op:target:budget");
}

TEST(FlagsDeathTest, SloBudgetWithTrailingTextAborts) {
  EXPECT_EXIT(RunHarness({"--slo=create:8ms:0.01x"}),
              testing::ExitedWithCode(2), "want op:target:budget");
}

}  // namespace
}  // namespace dufs::bench
