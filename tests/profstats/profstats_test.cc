// Unit tests for the profstats library (tools/profstats): folded parsing,
// per-frame aggregation, diff math, the compare gate's per-frame direction
// rules — plus a live round-trip against the profiler's own count-mode
// export (prof::ExportFolded -> ParseFolded must reproduce the sample
// totals the profiler reports).
#include <gtest/gtest.h>

#include <string>

#include "obs/prof.h"
#include "profstats.h"
#include "sim/task.h"

namespace dufs {
namespace {

using profstats::Aggregate;
using profstats::AggregateProfile;
using profstats::CompareOptions;
using profstats::CompareProfiles;
using profstats::CompareResult;
using profstats::Diff;
using profstats::DiffResult;
using profstats::ParseFolded;
using profstats::Profile;

Profile MustParse(const std::string& text) {
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
  AggregateProfile(MustParse(text), &a);
  return a;
}

TEST(ParseFoldedTest, RoundTripsStacksAndCounts) {
  const Profile p = MustParse("a;b;c 10\na 5\nx-y.z;w 1\n");
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
  EXPECT_FALSE(ParseFolded("no-count-here\n", &p, &error));
  EXPECT_FALSE(ParseFolded("a;b 12junk\n", &p, &error));
  EXPECT_FALSE(ParseFolded("a;;b 3\n", &p, &error));
  EXPECT_TRUE(ParseFolded("", &p, &error));  // empty profile is valid
  EXPECT_EQ(p.total, 0u);
}

// A folded file is external input: a frame name with a tab or another
// control byte must still yield valid JSON (the old escaper passed control
// bytes through raw).
TEST(ReportJsonTest, ControlBytesInFrameNamesAreEscaped) {
  const Aggregate a = Agg({{"bad\tframe", 3}, {"bell\x07", 1}});
  const CompareOptions opts{/*tolerance=*/0.02, /*min_share=*/0.0};
  CompareResult r;
  CompareProfiles(a, Agg({{"bad\tframe", 1}}), opts, &r);
  for (const std::string& json :
       {profstats::ReportJson(a, 10), profstats::CompareToJson(r, opts)}) {
    for (const char c : json) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
    }
    EXPECT_NE(json.find("\"bad\\tframe\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"bell\\u0007\""), std::string::npos) << json;
  }
}

TEST(AggregateTest, SelfAndTotalSemantics) {
  Aggregate a;
  AggregateProfile(MustParse("a;b 10\na;b;c 5\na 2\nd;e 3\n"), &a);
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
  AggregateProfile(MustParse("a;a;a 7\n"), &a);
  ASSERT_EQ(a.frames.size(), 1u);
  EXPECT_EQ(a.frames[0].self, 7u);
  EXPECT_EQ(a.frames[0].total, 7u);  // not 21
}

TEST(DiffTest, SharesAndOrdering) {
  DiffResult d;
  Diff(Agg({{"a", 50}, {"b", 50}}), Agg({{"a", 90}, {"c", 10}}), &d);
  EXPECT_EQ(d.old_total, 100u);
  EXPECT_EQ(d.new_total, 100u);
  ASSERT_EQ(d.rows.size(), 3u);
  // |delta|: b -0.5, a +0.4, c +0.1.
  EXPECT_EQ(d.rows[0].name, "b");
  EXPECT_DOUBLE_EQ(d.rows[0].delta, -0.5);
  EXPECT_EQ(d.rows[1].name, "a");
  EXPECT_DOUBLE_EQ(d.rows[1].old_share, 0.5);
  EXPECT_DOUBLE_EQ(d.rows[1].new_share, 0.9);
  EXPECT_EQ(d.rows[2].name, "c");
  EXPECT_DOUBLE_EQ(d.rows[2].old_share, 0.0);
}

TEST(CompareTest, WithinToleranceIsOk) {
  CompareResult r;
  CompareProfiles(Agg({{"a", 50}, {"b", 50}}), Agg({{"a", 51}, {"b", 49}}),
                  CompareOptions{/*tolerance=*/0.02, /*min_share=*/0.005},
                  &r);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.regressions, 0);
}

TEST(CompareTest, StableFramesRegressOnDriftEitherWay) {
  const CompareOptions opts{/*tolerance=*/0.02, /*min_share=*/0.005};
  CompareResult grew;
  CompareProfiles(Agg({{"a", 50}, {"b", 50}}), Agg({{"a", 60}, {"b", 40}}),
                  opts, &grew);
  EXPECT_FALSE(grew.ok);
  EXPECT_EQ(grew.regressions, 2);  // a grew AND b shrank beyond 2 pts
}

TEST(CompareTest, OverheadFramesOnlyRegressOnGrowth) {
  EXPECT_STREQ(profstats::FrameDirection("engine.wheel"), "lower");
  EXPECT_STREQ(profstats::FrameDirection("unattributed"), "lower");
  EXPECT_STREQ(profstats::FrameDirection("op.create"), "stable");
  const CompareOptions opts{/*tolerance=*/0.02, /*min_share=*/0.005};
  // engine.wheel shrank 10 pts: an improvement, not a regression — but the
  // workload frame absorbing it ("a") moved, and that is flagged.
  CompareResult shrank;
  CompareProfiles(Agg({{"engine.wheel", 20}, {"a", 80}}),
                  Agg({{"engine.wheel", 10}, {"a", 90}}), opts, &shrank);
  EXPECT_EQ(shrank.regressions, 1);
  for (const auto& row : shrank.rows) {
    EXPECT_EQ(row.regressed, row.name == "a") << row.name;
  }
  // The reverse direction — overhead growing — fails on both rows.
  CompareResult regrew;
  CompareProfiles(Agg({{"engine.wheel", 10}, {"a", 90}}),
                  Agg({{"engine.wheel", 20}, {"a", 80}}), opts, &regrew);
  EXPECT_FALSE(regrew.ok);
  EXPECT_EQ(regrew.regressions, 2);
}

TEST(CompareTest, NoiseFramesBelowMinShareAreIgnored) {
  CompareResult r;
  // 0.3% -> 0.4%: a 33% relative jump, but both sides are under min_share.
  CompareProfiles(Agg({{"tiny", 3}, {"a", 997}}),
                  Agg({{"tiny", 4}, {"a", 996}}),
                  CompareOptions{/*tolerance=*/0.0001, /*min_share=*/0.005},
                  &r);
  for (const auto& row : r.rows) {
    if (row.name == "tiny") {
      EXPECT_FALSE(row.regressed);
    }
  }
}

TEST(CompareTest, MarkdownAlwaysListsRegressions) {
  CompareResult r;
  const CompareOptions opts{/*tolerance=*/0.02, /*min_share=*/0.005};
  CompareProfiles(Agg({{"a", 50}, {"b", 50}}), Agg({{"a", 80}, {"b", 20}}),
                  opts, &r);
  // top_k=0 caps the "ok" rows, never the regressed ones.
  const std::string md = profstats::CompareToMarkdown(r, opts, 0);
  EXPECT_NE(md.find("FAIL"), std::string::npos);
  EXPECT_NE(md.find("| REGRESSION | `a` |"), std::string::npos);
  EXPECT_NE(md.find("| REGRESSION | `b` |"), std::string::npos);
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

  const Profile p = MustParse(folded);
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

}  // namespace
}  // namespace dufs
