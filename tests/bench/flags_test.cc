#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dufs::bench {
namespace {

// Builds a Flags from a plain argument list ("prog" is prepended).
Flags Make(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "prog";
  argv.push_back(prog.data());
  for (auto& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), "usage text");
}

TEST(FlagsTest, EqualsAndSpaceForms) {
  auto flags = Make({"--seed=7", "--procs", "64"});
  EXPECT_EQ(flags.Int("seed", 0), 7);
  EXPECT_EQ(flags.Int("procs", 0), 64);
  EXPECT_EQ(flags.Int("absent", 13), 13);
}

TEST(FlagsTest, BoolForms) {
  auto flags = Make({"--quick", "--cache=0", "--verbose=false"});
  EXPECT_TRUE(flags.Bool("quick"));
  EXPECT_FALSE(flags.Bool("cache"));
  EXPECT_FALSE(flags.Bool("verbose"));
  EXPECT_FALSE(flags.Bool("absent"));
  EXPECT_TRUE(flags.Bool("absent", true));
}

TEST(FlagsTest, StrReturnsValueOrFallback) {
  auto flags = Make({"--out=/tmp/x.json"});
  EXPECT_EQ(flags.Str("out", "default"), "/tmp/x.json");
  EXPECT_EQ(flags.Str("absent", "default"), "default");
  // The fallback must survive being passed by value (the old
  // `std::move(fallback)`-in-a-ternary pessimized and obscured this).
  const std::string keep = "keep-me";
  EXPECT_EQ(flags.Str("absent", keep), "keep-me");
  EXPECT_EQ(keep, "keep-me");
}

TEST(FlagsTest, UnknownFlagsAreIgnoredNotFatal) {
  // Unrecognized --flags parse fine and are simply never read back: benches
  // share command lines.
  auto flags = Make({"--no-such-flag=1", "--seed=3"});
  EXPECT_EQ(flags.Int("seed", 0), 3);
}

TEST(FlagsDeathTest, PositionalArgumentAborts) {
  EXPECT_EXIT(Make({"positional"}), testing::ExitedWithCode(2),
              "unexpected arg: positional");
}

TEST(FlagsDeathTest, PositionalAfterFlagsAborts) {
  // "--procs 64" consumes 64 as the value; a second bare token is an error.
  EXPECT_EXIT(Make({"--procs", "64", "stray"}), testing::ExitedWithCode(2),
              "unexpected arg: stray");
}

// A numeric value that is not entirely a number is a usage error, not a
// silent 0 (or a silent prefix) that runs a different configuration.
TEST(FlagsDeathTest, IntWithTrailingTextAborts) {
  EXPECT_EXIT(Make({"--items=2x"}).Int("items", 0), testing::ExitedWithCode(2),
              "--items: not an integer: \"2x\".*usage text");
  EXPECT_EXIT(Make({"--items=x"}).Int("items", 0), testing::ExitedWithCode(2),
              "not an integer");
  EXPECT_EXIT(Make({"--items="}).Int("items", 0), testing::ExitedWithCode(2),
              "not an integer");
}

TEST(FlagsDeathTest, DoubleWithTrailingTextAborts) {
  EXPECT_EXIT(Make({"--theta=0.9q"}).Double("theta", 0),
              testing::ExitedWithCode(2), "--theta: not a number");
  EXPECT_EXIT(Make({"--theta=abc"}).Double("theta", 0),
              testing::ExitedWithCode(2), "not a number");
}

TEST(FlagsDeathTest, IntListElementThatIsNotANumberAborts) {
  EXPECT_EXIT(Make({"--procs=16,x"}).IntList("procs", {}),
              testing::ExitedWithCode(2), "--procs: not an integer: \"x\"");
}

TEST(FlagsTest, NumbersParseWhole) {
  auto flags = Make({"--items=-3", "--theta=0.25", "--rate=1e3"});
  EXPECT_EQ(flags.Int("items", 0), -3);
  EXPECT_DOUBLE_EQ(flags.Double("theta", 0), 0.25);
  EXPECT_DOUBLE_EQ(flags.Double("rate", 0), 1000.0);
}

TEST(FlagsTest, IntListParsesCommaSeparated) {
  auto flags = Make({"--procs=16,32,64"});
  EXPECT_EQ(flags.IntList("procs", {}), (std::vector<long>{16, 32, 64}));
  EXPECT_EQ(flags.IntList("absent", {1, 2}), (std::vector<long>{1, 2}));
}

TEST(FlagsTest, IntListSkipsEmptySegments) {
  // Trailing / doubled commas used to parse as zeros, silently adding a
  // procs=0 data point to a sweep.
  EXPECT_EQ(Make({"--procs=16,32,"}).IntList("procs", {}),
            (std::vector<long>{16, 32}));
  EXPECT_EQ(Make({"--procs=16,,32"}).IntList("procs", {}),
            (std::vector<long>{16, 32}));
  EXPECT_TRUE(Make({"--procs="}).IntList("procs", {7}).empty());
}

TEST(FlagsTest, SingleElementIntList) {
  EXPECT_EQ(Make({"--procs=256"}).IntList("procs", {}),
            (std::vector<long>{256}));
}

TEST(JsonHelpersTest, MetricsJsonWriterShape) {
  MetricsJsonWriter out;
  HotPathCounters c;
  c.ops = 100;
  c.seconds = 2;
  c.zk_requests = 150;
  out.AddCounters("cfg \"a\"", c);
  out.AddValue("readdir_us", 12.5);
  SeriesTable table("procs", {"dufs", "basic"});
  table.AddRow(64, {10.0, 5.0});
  out.AddTable("fig", table);
  out.SetRegistryJson("{\"nodes\":{}}");
  const std::string json = out.ToJson();
  EXPECT_NE(json.find("\"label\":\"cfg \\\"a\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"ops_per_s\":50"), std::string::npos);
  EXPECT_NE(json.find("\"zk_requests\":150"), std::string::npos);
  EXPECT_NE(json.find("\"readdir_us\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":[[64,10,5]]"), std::string::npos);
  EXPECT_NE(json.find("\"registry\":{\"nodes\":{}}"), std::string::npos);
}

}  // namespace
}  // namespace dufs::bench
