// Unit tests for the tracestats analyzer library (tools/tracestats) over
// synthetic trace/metrics/baseline documents and folded profiles shaped
// exactly like the repo's own exporters emit them, plus a live round-trip
// against the profiler's own count-mode export.
#include <gtest/gtest.h>

#include <string>

#include "analyze.h"
#include "compare.h"
#include "json.h"
#include "obs/prof.h"
#include "profile.h"
#include "sim/task.h"

namespace dufs::tracestats {
namespace {

JsonValue Parse(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &v, &error)) << error;
  return v;
}

// One stat op, 100us end-to-end, with a zk-rpc [10,60)us, a zk-read
// [20,30)us inside it, and a nic-tx [12,18)us whose first 2us are queue
// wait. Categories must sum exactly to the root duration.
const char kTrace[] = R"({"traceEvents":[
 {"name":"thread_name","ph":"M","pid":1,"tid":1,
  "args":{"name":"client0"}},
 {"name":"stat","cat":"op","ph":"X","ts":0.000,"dur":100.000,"pid":1,
  "tid":1,"args":{"trace":1,"path":"/a"}},
 {"name":"zk-rpc","cat":"zk","ph":"X","ts":10.000,"dur":50.000,"pid":1,
  "tid":1,"args":{"trace":1}},
 {"name":"zk-read","cat":"zk","ph":"X","ts":20.000,"dur":10.000,"pid":1,
  "tid":2,"args":{"trace":1}},
 {"name":"nic-tx","cat":"net","ph":"X","ts":12.000,"dur":6.000,"pid":1,
  "tid":1,"args":{"trace":1,"wait_ns":2000,"bytes":64}}
],"displayTimeUnit":"ns"})";

TEST(JsonTest, ParsesObjectsArraysAndRawNumbers) {
  const JsonValue v = Parse(R"({"a":[1,2.5],"s":"x\ny","neg":-3})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->items.size(), 2u);
  EXPECT_EQ(a->items[0].raw, "1");
  EXPECT_EQ(a->items[1].raw, "2.5");
  EXPECT_EQ(v.GetString("s"), "x\ny");
  EXPECT_EQ(v.GetInt("neg"), -3);
}

TEST(JsonTest, RejectsGarbage) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\":", &v, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, MicrosRawToNanosIsExact) {
  // The tracer prints microseconds with exactly three decimals; the parser
  // must reconstruct integer nanoseconds without double rounding.
  const JsonValue v =
      Parse(R"({"a":12.345,"b":0.001,"c":1000000.000,"d":7})");
  EXPECT_EQ(MicrosRawToNanos(*v.Find("a")), 12'345);
  EXPECT_EQ(MicrosRawToNanos(*v.Find("b")), 1);
  EXPECT_EQ(MicrosRawToNanos(*v.Find("c")), 1'000'000'000);
  EXPECT_EQ(MicrosRawToNanos(*v.Find("d")), 7'000);
}

TEST(AnalyzeTest, DecompositionSumsExactlyToRootDuration) {
  const JsonValue trace = Parse(kTrace);
  AnalyzeResult r;
  std::string error;
  ASSERT_TRUE(Analyze(trace, nullptr, 10, 0.01, &r, &error)) << error;
  EXPECT_EQ(r.total_ops, 1u);
  EXPECT_EQ(r.orphan_events, 0u);
  ASSERT_EQ(r.classes.size(), 1u);
  const ClassStats& cs = r.classes[0];
  EXPECT_EQ(cs.op, "stat");
  EXPECT_EQ(cs.total_ns, 100'000);
  // Priority attribution: zk-read > nic wait/wire > zk-rpc > root.
  EXPECT_EQ(cs.ns[static_cast<int>(Category::kClient)], 50'000);
  EXPECT_EQ(cs.ns[static_cast<int>(Category::kRpcWait)], 34'000);
  EXPECT_EQ(cs.ns[static_cast<int>(Category::kNicWait)], 2'000);
  EXPECT_EQ(cs.ns[static_cast<int>(Category::kWire)], 4'000);
  EXPECT_EQ(cs.ns[static_cast<int>(Category::kZkQueue)], 10'000);
  std::int64_t sum = 0;
  for (int c = 0; c < kCategoryCount; ++c) sum += cs.ns[c];
  EXPECT_EQ(sum, cs.total_ns);  // every nanosecond attributed exactly once

  // Critical path: time-ordered merged segments.
  ASSERT_EQ(r.slowest.size(), 1u);
  const OpBreakdown& op = r.slowest[0];
  EXPECT_EQ(op.path, "/a");
  ASSERT_GE(op.segments.size(), 5u);
  EXPECT_EQ(op.segments[0].first, Category::kClient);
  EXPECT_EQ(op.segments[0].second, 10'000);
}

TEST(AnalyzeTest, UntracedEventsAreOrphans) {
  const JsonValue trace = Parse(
      R"({"traceEvents":[
       {"name":"nic-tx","cat":"net","ph":"X","ts":1.000,"dur":2.000,
        "pid":1,"tid":1,"args":{"wait_ns":0}}]})");
  AnalyzeResult r;
  std::string error;
  ASSERT_TRUE(Analyze(trace, nullptr, 10, 0.01, &r, &error)) << error;
  EXPECT_EQ(r.total_ops, 0u);
  EXPECT_EQ(r.orphan_events, 1u);
}

TEST(AnalyzeTest, CrossCheckAgainstHistogramSum) {
  const JsonValue trace = Parse(kTrace);
  // Exact agreement: trace total 100000 ns == histogram sum.
  const JsonValue good = Parse(
      R"({"registry":{"merged":{"hists":{
          "op.stat_ns":{"count":1,"sum":100000}}}}})");
  AnalyzeResult r1;
  std::string error;
  ASSERT_TRUE(Analyze(trace, &good, 10, 0.01, &r1, &error)) << error;
  EXPECT_TRUE(r1.check_ok);
  EXPECT_EQ(r1.classes[0].hist_sum_ns, 100'000);
  EXPECT_EQ(r1.classes[0].hist_count, 1u);

  // An 11% disagreement must fail the 1% check and name the class.
  const JsonValue bad = Parse(
      R"({"registry":{"merged":{"hists":{
          "op.stat_ns":{"count":1,"sum":90000}}}}})");
  AnalyzeResult r2;
  ASSERT_TRUE(Analyze(trace, &bad, 10, 0.01, &r2, &error)) << error;
  EXPECT_FALSE(r2.check_ok);
  ASSERT_EQ(r2.check_messages.size(), 1u);
  EXPECT_NE(r2.check_messages[0].find("stat"), std::string::npos);
}

TEST(AnalyzeTest, OutputIsByteDeterministic) {
  const JsonValue trace = Parse(kTrace);
  AnalyzeResult r1, r2;
  std::string error;
  ASSERT_TRUE(Analyze(trace, nullptr, 10, 0.01, &r1, &error));
  ASSERT_TRUE(Analyze(trace, nullptr, 10, 0.01, &r2, &error));
  EXPECT_EQ(ResultToJson(r1), ResultToJson(r2));
  EXPECT_EQ(ResultToText(r1), ResultToText(r2));
  EXPECT_NE(ResultToJson(r1).find("\"critical_path\""), std::string::npos);
}

TEST(AnalyzeTest, TopKKeepsSlowestInDescendingOrder) {
  const JsonValue trace = Parse(
      R"({"traceEvents":[
       {"name":"stat","cat":"op","ph":"X","ts":0.000,"dur":5.000,
        "pid":1,"tid":1,"args":{"trace":1}},
       {"name":"mkdir","cat":"op","ph":"X","ts":10.000,"dur":50.000,
        "pid":1,"tid":1,"args":{"trace":2}},
       {"name":"stat","cat":"op","ph":"X","ts":70.000,"dur":20.000,
        "pid":1,"tid":1,"args":{"trace":3}}]})");
  AnalyzeResult r;
  std::string error;
  ASSERT_TRUE(Analyze(trace, nullptr, 2, 0.01, &r, &error)) << error;
  EXPECT_EQ(r.total_ops, 3u);
  ASSERT_EQ(r.slowest.size(), 2u);
  EXPECT_EQ(r.slowest[0].op, "mkdir");
  EXPECT_EQ(r.slowest[1].dur_ns, 20'000);
}

// --- folded profiles -------------------------------------------------------

Profile MustParseFolded(const std::string& text) {
  Profile p;
  std::string error;
  EXPECT_TRUE(ParseFolded(text, &p, &error)) << error;
  return p;
}

// Builds an aggregate where each (name, self) pair is one leaf line, so
// shares are easy to reason about in the compare tests.
Aggregate Agg(const std::vector<std::pair<std::string, std::uint64_t>>& v) {
  std::string text;
  for (const auto& [name, self] : v) {
    text += name + " " + std::to_string(self) + "\n";
  }
  Aggregate a;
  AggregateProfile(MustParseFolded(text), &a);
  return a;
}

CompareResult CompareAggs(const Aggregate& old_a, const Aggregate& new_a,
                          double tol) {
  CompareResult r;
  CompareProfiles(old_a, new_a, tol, &r);
  return r;
}

const CompareRow* FindRow(const CompareResult& r, const std::string& name) {
  for (const CompareRow& row : r.rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

TEST(ParseFoldedTest, RoundTripsStacksAndCounts) {
  const Profile p = MustParseFolded("a;b;c 10\na 5\nx-y.z;w 1\n");
  ASSERT_EQ(p.stacks.size(), 3u);
  EXPECT_EQ(p.total, 16u);
  EXPECT_EQ(p.stacks[0].frames,
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(p.stacks[0].count, 10u);
  EXPECT_EQ(p.stacks[1].frames, (std::vector<std::string>{"a"}));
  EXPECT_EQ(p.stacks[2].frames, (std::vector<std::string>{"x-y.z", "w"}));
}

TEST(ParseFoldedTest, RejectsMalformedLines) {
  Profile p;
  std::string error;
  for (const char* bad : {
           "no-count-here\n", "a;b 12junk\n", "a;;b 3\n",
           // Sample counts are plain decimal digits within 64 bits.
           "c -5\n", "c +5\n", "c 0x10\n", "c 1e3\n", "c 5.0\n",
           "c 18446744073709551616\n", "c 99999999999999999999999\n",
           // ... and so is their total.
           "a 18446744073709551615\nb 1\n"}) {
    EXPECT_FALSE(ParseFolded(bad, &p, &error)) << bad;
  }
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_TRUE(ParseFolded("a 18446744073709551615\n", &p, &error)) << error;
  EXPECT_EQ(p.total, 18446744073709551615u);
  EXPECT_TRUE(ParseFolded("", &p, &error));  // empty profile is valid
  EXPECT_EQ(p.total, 0u);
}

// A folded file is external input: a frame name with a tab or another
// control byte must still yield valid JSON.
TEST(ReportJsonTest, ControlBytesInFrameNamesAreEscaped) {
  const Aggregate a = Agg({{"bad\tframe", 3}, {"bell\x07", 1}});
  const CompareResult r = CompareAggs(a, Agg({{"bad\tframe", 1}}), 0.02);
  for (const std::string& json : {ProfileToJson(a, 10), CompareToJson(r)}) {
    for (const char c : json) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
    }
    EXPECT_NE(json.find("\"bad\\tframe\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"bell\\u0007\""), std::string::npos) << json;
  }
}

// A frame name is external input of any length: the reports print it
// whole and still end its line with the numbers.
TEST(ReportTextTest, LongFrameNamesKeepTheirLines) {
  const std::string name(300, 'x');
  const Aggregate a = Agg({{name, 3}, {"b", 1}});
  const std::string text = ProfileToText(a, 10);
  EXPECT_NE(text.find(name + " "), std::string::npos) << text;
  EXPECT_NE(text.find("3   75.00%\n"), std::string::npos) << text;
  const std::string cmp = CompareToText(CompareAggs(a, a, 0.05));
  EXPECT_NE(cmp.find(name + " "), std::string::npos) << cmp;
  EXPECT_NE(cmp.find("75.00% ->         75.00%  +0.00 pts (stable)\n"),
            std::string::npos)
      << cmp;
}

TEST(AggregateTest, SelfAndTotalSemantics) {
  Aggregate a;
  AggregateProfile(MustParseFolded("a;b 10\na;b;c 5\na 2\nd;e 3\n"), &a);
  EXPECT_EQ(a.total_samples, 20u);
  ASSERT_EQ(a.frames.size(), 5u);  // sorted: a b c d e
  EXPECT_EQ(a.frames[0].name, "a");
  EXPECT_EQ(a.frames[0].self, 2u);     // leaf only in "a 2"
  EXPECT_EQ(a.frames[0].total, 17u);   // every stack it appears on
  EXPECT_EQ(a.frames[1].name, "b");
  EXPECT_EQ(a.frames[1].self, 10u);
  EXPECT_EQ(a.frames[1].total, 15u);
  EXPECT_EQ(a.frames[3].name, "d");
  EXPECT_EQ(a.frames[3].self, 0u);   // never a leaf
  EXPECT_EQ(a.frames[3].total, 3u);
}

TEST(AggregateTest, RecursiveFrameCountsOncePerStack) {
  Aggregate a;
  AggregateProfile(MustParseFolded("a;a;a 7\n"), &a);
  ASSERT_EQ(a.frames.size(), 1u);
  EXPECT_EQ(a.frames[0].self, 7u);
  EXPECT_EQ(a.frames[0].total, 7u);  // not 21
}

// The profile report lists every frame's old share, new share and delta,
// biggest movement first, and a frame absent on one side has share 0.
TEST(CompareTest, ProfileSharesAndOrderByDelta) {
  const CompareResult r = CompareAggs(Agg({{"a", 50}, {"b", 50}}),
                                      Agg({{"a", 90}, {"c", 10}}), 0.05);
  ASSERT_EQ(r.rows.size(), 3u);
  // |delta|: b -0.5, a +0.4, c +0.1.
  EXPECT_EQ(r.rows[0].name, "b");
  EXPECT_DOUBLE_EQ(r.rows[0].delta, -0.5);
  EXPECT_DOUBLE_EQ(r.rows[0].new_value, 0.0);
  EXPECT_EQ(r.rows[1].name, "a");
  EXPECT_DOUBLE_EQ(r.rows[1].old_value, 0.5);
  EXPECT_DOUBLE_EQ(r.rows[1].new_value, 0.9);
  EXPECT_EQ(r.rows[2].name, "c");
  EXPECT_DOUBLE_EQ(r.rows[2].old_value, 0.0);
  EXPECT_DOUBLE_EQ(r.rows[2].delta, 0.1);
  const std::string text = CompareToText(r);
  EXPECT_LT(text.find(" b "), text.find(" a "));
  EXPECT_LT(text.find(" a "), text.find(" c "));
  EXPECT_NE(text.find("50.00%"), std::string::npos) << text;
  EXPECT_NE(text.find("+40.00 pts"), std::string::npos) << text;
}

TEST(CompareTest, StableFramesRegressOnDriftEitherWay) {
  const CompareResult grew = CompareAggs(Agg({{"a", 50}, {"b", 50}}),
                                         Agg({{"a", 60}, {"b", 40}}), 0.02);
  EXPECT_FALSE(grew.ok());
  EXPECT_EQ(grew.regressions, 2);  // a grew AND b shrank beyond 2 pts
}

TEST(CompareTest, OverheadFramesOnlyRegressOnGrowth) {
  EXPECT_STREQ(FrameDirection("engine.wheel"), "lower");
  EXPECT_STREQ(FrameDirection("unattributed"), "lower");
  EXPECT_STREQ(FrameDirection("op.create"), "stable");
  // engine.wheel shrank 10 pts: an improvement, not a regression — but the
  // workload frame absorbing it ("a") moved, and that is flagged.
  const CompareResult shrank =
      CompareAggs(Agg({{"engine.wheel", 20}, {"a", 80}}),
                  Agg({{"engine.wheel", 10}, {"a", 90}}), 0.02);
  EXPECT_EQ(shrank.regressions, 1);
  for (const auto& row : shrank.rows) {
    EXPECT_EQ(row.regressed, row.name == "a") << row.name;
  }
  // The reverse direction — overhead growing — fails on both rows.
  const CompareResult regrew =
      CompareAggs(Agg({{"engine.wheel", 10}, {"a", 90}}),
                  Agg({{"engine.wheel", 20}, {"a", 80}}), 0.02);
  EXPECT_FALSE(regrew.ok());
  EXPECT_EQ(regrew.regressions, 2);
}

TEST(CompareTest, NoiseFramesBelowMinShareAreIgnored) {
  // 0.3% -> 0.9%: a threefold jump, but both sides are under kMinShare.
  const CompareResult r = CompareAggs(Agg({{"tiny", 3}, {"a", 997}}),
                                      Agg({{"tiny", 9}, {"a", 991}}), 0.0001);
  const CompareRow* tiny = FindRow(r, "tiny");
  ASSERT_NE(tiny, nullptr);  // listed in the report, never failed
  EXPECT_FALSE(tiny->regressed);
  // At kMinShare on one side the frame is judged.
  const CompareResult judged = CompareAggs(
      Agg({{"tiny", 3}, {"a", 997}}), Agg({{"tiny", 10}, {"a", 990}}), 0.0001);
  EXPECT_TRUE(FindRow(judged, "tiny")->regressed);
}

TEST(CompareTest, MarkdownAlwaysListsRegressions) {
  const CompareResult r = CompareAggs(Agg({{"a", 50}, {"b", 50}}),
                                      Agg({{"a", 80}, {"b", 20}}), 0.02);
  const std::string md = CompareToMarkdown(r);
  EXPECT_EQ(md.find("### cpu-profile gate: FAIL (2 regressions)"), 0u) << md;
  EXPECT_NE(md.find("REGRESSION a "), std::string::npos) << md;
  EXPECT_NE(md.find("REGRESSION b "), std::string::npos) << md;
}

TEST(RoundTripTest, ParsesTheProfilersOwnExport) {
  prof::Options o;
  o.mode = prof::Options::Mode::kCount;
  o.every = 4;
  std::string error;
  ASSERT_TRUE(prof::Start(o, &error)) << error;
  {
    sim::Simulation s(9);
    sim::CurrentSimulationScope scope(&s);
    s.Spawn([](sim::Simulation* sim) -> sim::Task<void> {
      prof::ProfScope scope2("op.roundtrip", prof::FrameKind::kOpClass);
      for (int i = 0; i < 200; ++i) co_await sim->Delay(3);
    }(&s));
    for (int i = 0; i < 100; ++i) s.ScheduleFn(i % 13, [] {});
    s.Run();
  }
  prof::Stop();
  const prof::Stats st = prof::GetStats();
  const std::string folded = prof::ExportFolded();
  prof::Reset();

  const Profile p = MustParseFolded(folded);
  EXPECT_EQ(p.total, st.samples);  // nothing lost in export or parse
  Aggregate a;
  AggregateProfile(p, &a);
  bool found = false;
  for (const auto& f : a.frames) {
    if (f.name == "op.roundtrip") {
      found = true;
      EXPECT_GT(f.total, 0u);
    }
  }
  EXPECT_TRUE(found) << folded;
}

// --- baseline comparison --------------------------------------------------

const char kOldBase[] = R"({"bench":"x","schema":1,"metrics":{
  "create.ops_per_s":{"value":1000,"better":"higher"},
  "readdir.us":{"value":50,"better":"lower"}}})";

CompareResult CompareBases(const std::string& old_text,
                           const std::string& new_text) {
  CompareResult r;
  std::string error;
  EXPECT_TRUE(CompareBaselines(Parse(old_text), Parse(new_text), 0.05, &r,
                               &error))
      << error;
  return r;
}

TEST(CompareTest, IdenticalBaselinesHaveNoRegressions) {
  const CompareResult r = CompareBases(kOldBase, kOldBase);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.regressions, 0);
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(CompareToText(r).find("REGRESSION"), std::string::npos);
}

TEST(CompareTest, DropBeyondToleranceRegressesHigherBetter) {
  const CompareResult r = CompareBases(kOldBase, R"({"metrics":{
    "create.ops_per_s":{"value":900,"better":"higher"},
    "readdir.us":{"value":50,"better":"lower"}}})");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.regressions, 1);
  const CompareRow* row = FindRow(r, "create.ops_per_s");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->regressed);
  EXPECT_EQ(row->direction, "higher");
  EXPECT_DOUBLE_EQ(row->delta, -0.1);
  // The report names the regressed metric on a REGRESSION line.
  EXPECT_NE(CompareToText(r).find("REGRESSION create.ops_per_s"),
            std::string::npos);
}

TEST(CompareTest, RiseBeyondToleranceRegressesLowerBetter) {
  const CompareResult r = CompareBases(kOldBase, R"({"metrics":{
    "create.ops_per_s":{"value":1000,"better":"higher"},
    "readdir.us":{"value":60,"better":"lower"}}})");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.regressions, 1);
  EXPECT_TRUE(FindRow(r, "readdir.us")->regressed);
}

// Baselines move by relative change, profiles by share points; inside the
// tolerance neither fails.
TEST(CompareTest, WithinToleranceIsOk) {
  EXPECT_TRUE(CompareBases(kOldBase, R"({"metrics":{
    "create.ops_per_s":{"value":960,"better":"higher"},
    "readdir.us":{"value":52,"better":"lower"}}})").ok());
  const CompareResult r = CompareAggs(Agg({{"a", 50}, {"b", 50}}),
                                      Agg({{"a", 51}, {"b", 49}}), 0.02);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.regressions, 0);
}

TEST(CompareTest, MissingMetricRegressesNewMetricInforms) {
  const CompareResult r = CompareBases(kOldBase, R"({"metrics":{
    "create.ops_per_s":{"value":1000,"better":"higher"},
    "brand.new":{"value":1,"better":"higher"}}})");
  EXPECT_FALSE(r.ok());  // readdir.us vanished
  EXPECT_EQ(r.regressions, 1);
  const CompareRow* gone = FindRow(r, "readdir.us");
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(gone->mark, CompareRow::Mark::kMissing);
  EXPECT_TRUE(gone->regressed);
  const CompareRow* added = FindRow(r, "brand.new");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->mark, CompareRow::Mark::kNew);
  EXPECT_FALSE(added->regressed);  // additions inform, never fail
  EXPECT_EQ(&r.rows.back(), added);  // new metrics come last
  const std::string text = CompareToText(r);
  EXPECT_NE(text.find("missing from new"), std::string::npos) << text;
  EXPECT_NE(text.find("new metric"), std::string::npos) << text;
  const std::string json = CompareToJson(r);
  EXPECT_NE(json.find("\"name\":\"brand.new\",\"direction\":\"higher\","
                      "\"old\":null,\"new\":1,\"delta\":null"),
            std::string::npos)
      << json;
}

TEST(CompareTest, MarkdownCarriesVerdictAndAllLines) {
  const CompareResult r = CompareBases(kOldBase, R"({"metrics":{
    "create.ops_per_s":{"value":900,"better":"higher"},
    "readdir.us":{"value":50,"better":"lower"}}})");
  // The $GITHUB_STEP_SUMMARY rendering: FAIL verdict in the header, the
  // whole text report (one line per metric) inside a fenced block.
  const std::string md = CompareToMarkdown(r);
  EXPECT_EQ(md.find("### perf-compare gate: FAIL (1 regressions)"), 0u);
  EXPECT_NE(md.find("```text\n" + CompareToText(r) + "```\n"),
            std::string::npos)
      << md;
  EXPECT_NE(CompareToText(r).find("-10.00% (higher)"), std::string::npos);
  EXPECT_NE(CompareToMarkdown(CompareBases(kOldBase, kOldBase)).find("PASS"),
            std::string::npos);
}

// A metric with no numeric value, or a "better" that is neither "higher"
// nor "lower", is an input error that names the metric — never a 0 or a
// guessed direction.
TEST(CompareTest, BaselineRejectsIncompleteMetrics) {
  for (const char* bad : {
           R"({"metrics":{"m.x":{"better":"higher"}}})",
           R"({"metrics":{"m.x":{"value":"7","better":"higher"}}})",
           R"({"metrics":{"m.x":{"value":7}}})",
           R"({"metrics":{"m.x":{"value":7,"better":"up"}}})",
           R"({"metrics":{"m.x":3}})"}) {
    CompareResult r;
    std::string error;
    EXPECT_FALSE(CompareBaselines(Parse(bad), Parse(kOldBase), 0.05, &r,
                                  &error))
        << bad;
    EXPECT_NE(error.find("old baseline: metric m.x"), std::string::npos)
        << error;
    EXPECT_FALSE(CompareBaselines(Parse(kOldBase), Parse(bad), 0.05, &r,
                                  &error))
        << bad;
    EXPECT_NE(error.find("new baseline: metric m.x"), std::string::npos)
        << error;
  }
}

// --compare tells a baseline from a folded profile by the file contents and
// refuses to compare one with the other.
TEST(CompareTest, InputKindFollowsContents) {
  CompareResult r;
  std::string error;
  ASSERT_TRUE(Compare(kOldBase, kOldBase, 0.05, &r, &error)) << error;
  EXPECT_FALSE(r.profile);
  EXPECT_EQ(r.rows.size(), 2u);
  // The checked-in profile starts with a blank line.
  ASSERT_TRUE(Compare("\na;b 3\n", "\na;b 3\nc 1\n", 0.05, &r, &error))
      << error;
  EXPECT_TRUE(r.profile);
  EXPECT_EQ(r.rows.size(), 3u);  // a (never a leaf), b and c
  EXPECT_FALSE(Compare(kOldBase, "a;b 3\n", 0.05, &r, &error));
  EXPECT_NE(error.find("old input is a baseline"), std::string::npos);
  EXPECT_FALSE(Compare("a;b 3\n", kOldBase, 0.05, &r, &error));
  EXPECT_NE(error.find("old input is a folded profile"), std::string::npos);
  EXPECT_FALSE(Compare("{\"metrics\":", kOldBase, 0.05, &r, &error));
  EXPECT_NE(error.find("old baseline: "), std::string::npos) << error;
  EXPECT_FALSE(Compare("a 1\n", "a -1\n", 0.05, &r, &error));
  EXPECT_NE(error.find("new profile: line 1: bad sample count"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace dufs::tracestats
