#include "obs/slo.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "obs/incident.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace dufs {
namespace {

bool Fired(const obs::Incidents& inc, std::string_view type) {
  for (const auto& a : inc.anomalies()) {
    if (std::string_view(a.type) == type) return true;
  }
  return false;
}

TEST(Log2HistTest, BucketBoundaries) {
  EXPECT_EQ(obs::Log2Hist::BucketFor(-5), 0);
  EXPECT_EQ(obs::Log2Hist::BucketFor(0), 0);
  EXPECT_EQ(obs::Log2Hist::BucketFor(1), 1);
  EXPECT_EQ(obs::Log2Hist::BucketFor(2), 2);
  EXPECT_EQ(obs::Log2Hist::BucketFor(3), 2);
  EXPECT_EQ(obs::Log2Hist::BucketFor(4), 3);
  EXPECT_EQ(obs::Log2Hist::BucketFor(1023), 10);
  EXPECT_EQ(obs::Log2Hist::BucketFor(1024), 11);
  EXPECT_EQ(obs::Log2Hist::UpperBound(0), 0);
  EXPECT_EQ(obs::Log2Hist::UpperBound(2), 3);
  EXPECT_EQ(obs::Log2Hist::UpperBound(10), 1023);
}

TEST(Log2HistTest, QuantileIsBucketUpperBoundClampedToMax) {
  obs::Log2Hist h;
  for (int i = 0; i < 99; ++i) h.Record(10);  // bucket 4, ub 15
  h.Record(1000);                             // bucket 10, ub 1023
  EXPECT_EQ(h.total, 100u);
  EXPECT_EQ(h.max, 1000);
  EXPECT_EQ(h.Quantile(0.5), 15);
  // The top bucket reports the exact observed max, not the 1023 bound.
  EXPECT_EQ(h.Quantile(0.999), 1000);
  EXPECT_EQ(obs::Log2Hist{}.Quantile(0.5), 0);  // empty
}

TEST(Log2HistTest, MergeAccumulates) {
  obs::Log2Hist a, b;
  a.Record(5);
  b.Record(100);
  b.Record(7);
  a.Merge(b);
  EXPECT_EQ(a.total, 3u);
  EXPECT_EQ(a.sum, 112);
  EXPECT_EQ(a.max, 100);
}

TEST(SlidingDigestTest, RolloverKeepsLastDepthWindows) {
  obs::SlidingDigest d;
  d.Init(2);
  for (int w = 0; w < 3; ++w) {
    d.cur.Record(100 * (w + 1));
    d.Roll();
  }
  EXPECT_EQ(d.closed_windows(), 3u);
  EXPECT_EQ(d.trailing_count(), 2u);
  const auto merged = d.TrailingMerged();
  // Only the last two windows (200, 300) are retained.
  EXPECT_EQ(merged.total, 2u);
  EXPECT_EQ(merged.sum, 500);
  EXPECT_EQ(d.cur.total, 0u);  // Roll clears the open window
}

TEST(SloStateTest, BurnRateMath) {
  obs::SloState s;
  s.spec = obs::SloSpec{"create", 100, 0.1};
  for (int i = 0; i < 9; ++i) s.Observe(50);
  s.Observe(200);
  EXPECT_EQ(s.good, 9u);
  EXPECT_EQ(s.bad, 1u);
  // 10% of ops over target / 10% budget = burning at exactly the allowed
  // rate.
  EXPECT_DOUBLE_EQ(s.WindowBurn(), 1.0);
  s.Roll(3);
  EXPECT_DOUBLE_EQ(s.max_burn, 1.0);
  EXPECT_EQ(s.max_burn_window, 3u);
  EXPECT_EQ(s.window_good + s.window_bad, 0u);
  EXPECT_DOUBLE_EQ(s.WindowBurn(), 0.0);  // idle window burns nothing
}

TEST(IncidentsTest, DisarmedHooksAreNoOps) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  obs::Incidents inc;
  inc.Bind(&sim, &tracer);
  EXPECT_FALSE(inc.armed());
  inc.RecordFsync(0, sim::Ms(100), 1);
  inc.RecordQueueDepth(0, 10'000);
  inc.RecordLeaderChange(0, 5);
  EXPECT_TRUE(inc.anomalies().empty());
}

TEST(IncidentsTest, CanonicalOpNameResolvesKnownClasses) {
  EXPECT_STREQ(obs::Incidents::CanonicalOpName("create"), "create");
  EXPECT_STREQ(obs::Incidents::CanonicalOpName("stat"), "stat");
  EXPECT_EQ(obs::Incidents::CanonicalOpName("warp-drive"), nullptr);
}

TEST(IncidentsTest, FsyncStallFiresAndCooldownSuppresses) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  obs::Incidents inc;
  inc.Bind(&sim, &tracer);
  inc.Configure(obs::AnomalyConfig{});
  EXPECT_TRUE(inc.armed());
  inc.RecordFsync(0, sim::Ms(25), 3);
  inc.RecordFsync(0, sim::Ms(30), 1);  // same sim time: in cooldown
  inc.RecordFsync(0, sim::Ms(2), 1);   // healthy: below the stall bound
  ASSERT_EQ(inc.anomalies().size(), 1u);
  const auto& a = inc.anomalies()[0];
  EXPECT_STREQ(a.type, "fsync-stall");
  EXPECT_EQ(a.value, sim::Ms(25));
  EXPECT_EQ(a.threshold, sim::Ms(20));
  EXPECT_EQ(inc.suppressed(), 1u);
}

TEST(IncidentsTest, QueueDepthAndLeaderChangeFire) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  obs::Incidents inc;
  inc.Bind(&sim, &tracer);
  inc.Configure(obs::AnomalyConfig{});
  inc.RecordQueueDepth(0, 95);  // below watermark
  inc.RecordQueueDepth(0, 96);  // at watermark
  inc.RecordLeaderChange(1, 2);
  EXPECT_TRUE(Fired(inc, "queue-depth"));
  EXPECT_TRUE(Fired(inc, "leader-change"));
  EXPECT_EQ(inc.anomalies().size(), 2u);
}

TEST(IncidentsTest, P999SpikeNeedsTrailingWindowsThenFires) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  obs::Incidents inc;
  inc.Bind(&sim, &tracer);
  obs::AnomalyConfig cfg;
  cfg.window_ns = sim::Ms(1);
  inc.Configure(cfg);
  sim::RunTask(sim, [](sim::Simulation& s,
                       obs::Incidents& in) -> sim::Task<void> {
    // Three healthy windows build the trailing baseline (p99.9 ~ 16us).
    for (int w = 0; w < 3; ++w) {
      for (int i = 0; i < 20; ++i) in.RecordOp("create", 0, 10'000);
      co_await s.Delay(sim::Ms(1));
    }
    EXPECT_FALSE(Fired(in, "p999-spike"));
    // Anomalous window: every op over the 500us floor and 3x baseline.
    for (int i = 0; i < 20; ++i) in.RecordOp("create", 0, 600'000);
    co_await s.Delay(sim::Ms(1));
    // The next sample closes the anomalous window and fires the detector.
    in.RecordOp("create", 0, 10'000);
  }(sim, inc));
  ASSERT_TRUE(Fired(inc, "p999-spike"));
  for (const auto& a : inc.anomalies()) {
    if (std::string_view(a.type) == "p999-spike") {
      EXPECT_EQ(a.value, 600'000);
      EXPECT_NE(a.detail.find("op=create"), std::string::npos);
    }
  }
}

TEST(IncidentsTest, BurnRateAlertOnWindowClose) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  obs::Incidents inc;
  inc.Bind(&sim, &tracer);
  obs::AnomalyConfig cfg;
  cfg.window_ns = sim::Ms(1);
  inc.Configure(cfg);
  inc.AddSlo(obs::SloSpec{"create", 1'000, 0.001});
  for (int i = 0; i < 20; ++i) inc.RecordOp("create", 0, 5'000);
  inc.Flush();  // closes the open window
  EXPECT_TRUE(Fired(inc, "burn-rate"));
  const std::string report = inc.ReportJson();
  EXPECT_NE(report.find("\"burn_alerts\":1"), std::string::npos);
  EXPECT_NE(report.find("\"met\":false"), std::string::npos);
}

TEST(IncidentsTest, CacheCollapseAfterHealthyTrailingRate) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  obs::Incidents inc;
  inc.Bind(&sim, &tracer);
  obs::AnomalyConfig cfg;
  cfg.window_ns = sim::Ms(1);
  inc.Configure(cfg);
  sim::RunTask(sim, [](sim::Simulation& s,
                       obs::Incidents& in) -> sim::Task<void> {
    // Two healthy windows: 90% hit rate over enough probes.
    for (int w = 0; w < 2; ++w) {
      for (int i = 0; i < 100; ++i) in.RecordCacheProbe(0, i % 10 != 0);
      co_await s.Delay(sim::Ms(1));
    }
    // Collapse: 10% hit rate.
    for (int i = 0; i < 100; ++i) in.RecordCacheProbe(0, i % 10 == 0);
  }(sim, inc));
  EXPECT_FALSE(Fired(inc, "cache-collapse"));
  inc.Flush();
  EXPECT_TRUE(Fired(inc, "cache-collapse"));
}

TEST(IncidentsTest, ReportJsonListsClassQuantiles) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  const auto track = tracer.Track("client0");
  obs::Incidents inc;
  inc.Bind(&sim, &tracer);
  inc.Configure(obs::AnomalyConfig{});
  for (int i = 0; i < 10; ++i) inc.RecordOp("stat", track, 1'000);
  inc.Flush();
  const std::string report = inc.ReportJson();
  EXPECT_NE(report.find("\"op\":\"stat\""), std::string::npos);
  EXPECT_NE(report.find("\"node\":\"client0\""), std::string::npos);
  EXPECT_NE(report.find("\"count\":10"), std::string::npos);
}

}  // namespace
}  // namespace dufs
