#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "mdtest/testbed.h"
#include "obs/obs.h"
#include "sim/task.h"

namespace dufs {
namespace {

using mdtest::BackendKind;
using mdtest::Testbed;
using mdtest::TestbedConfig;

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;  // not bound, not enabled
  tracer.Complete(0, "x", "c", 0, 1, 0);
  EXPECT_TRUE(tracer.events().empty());
  obs::Span span(&tracer, 0, "op", "cat");
  EXPECT_FALSE(span.active());
  span.End();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, EnableRequiresBoundSimulation) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);  // no sim bound yet
  EXPECT_FALSE(tracer.enabled());
}

TEST(TracerTest, TrackIdsFollowRegistrationOrder) {
  obs::Tracer tracer;
  const auto a = tracer.Track("zk0");
  const auto b = tracer.Track("client0");
  EXPECT_EQ(tracer.Track("zk0"), a);  // get-or-create
  EXPECT_NE(a, b);
  ASSERT_EQ(tracer.tracks().size(), 2u);
  EXPECT_EQ(tracer.tracks()[a], "zk0");
  EXPECT_EQ(tracer.tracks()[b], "client0");
}

TEST(TracerTest, ChromeJsonHasMetadataAndEvents) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetEnabled(true);
  const auto track = tracer.Track("node0");
  tracer.Complete(track, "work", "cat", 1'500, 2'500, 7, {{"key", 42}});
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"node0\""), std::string::npos);
  // 1500ns start / 2500ns duration as fixed-point microseconds.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":7"), std::string::npos);
  EXPECT_NE(json.find("\"key\":42"), std::string::npos);
}

// Only the spans admitted while enabled are exported, in admission order
// and without their seq: enabling does not pull earlier spans in, and
// disabling does not evict the traced ones, however many spans follow.
TEST(TracerTest, ExportHoldsExactlyTheSpansAdmittedWhileEnabled) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  const auto a = tracer.Track("a");
  const auto b = tracer.Track("b");
  tracer.Complete(a, "setup", "c", 0, 1, 0);
  tracer.SetEnabled(true);
  tracer.Complete(b, "one", "c", 10, 1, 1, {{"wait_ns", 3}});
  tracer.Complete(a, "two", "c", 20, 1, 2);
  tracer.Complete(b, "three", "c", 30, 1, 3);
  tracer.SetEnabled(false);
  for (std::uint32_t i = 0; i < 2 * obs::Tracer::kTrackCapacity; ++i) {
    tracer.Complete(b, "after", "c", 40 + i, 1, 0);
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "one");
  EXPECT_EQ(events[0].track, b);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_STREQ(events[0].args[0].key, "wait_ns");
  EXPECT_EQ(events[0].args[0].num, 3);
  EXPECT_STREQ(events[1].name, "two");
  EXPECT_STREQ(events[2].name, "three");
  EXPECT_EQ(tracer.traced(), 3u);
  const std::string json = tracer.ToChromeJson();
  EXPECT_EQ(json.find("\"setup\""), std::string::npos);
  EXPECT_EQ(json.find("\"after\""), std::string::npos);
  EXPECT_EQ(json.find("\"seq\""), std::string::npos);
  EXPECT_LT(json.find("\"one\""), json.find("\"two\""));
}

// An armed tracer's anomaly dump lists the same newest records per track
// whether or not the spans were traced.
TEST(TracerTest, DumpIsTheSameTracedOrNot) {
  auto dump = [](bool traced) {
    sim::Simulation sim(1);
    obs::Tracer tracer;
    tracer.Bind(&sim);
    tracer.SetArmed(true);
    const auto t = tracer.Track("zk0");
    tracer.Complete(t, "early", "c", 0, 1, 0);
    tracer.SetEnabled(traced);
    for (std::uint32_t i = 1; i <= obs::Tracer::kTrackCapacity + 5; ++i) {
      tracer.Complete(t, "nic-rx", "net", 1000 * i, 10, i,
                      {{"wait_ns", 4}, {"bytes", 64}});
    }
    return tracer.DumpJson("{\"type\":\"test\"}");
  };
  const std::string untraced = dump(false);
  EXPECT_EQ(untraced, dump(true));
  EXPECT_EQ(untraced.find("\"early\""), std::string::npos);  // evicted
  EXPECT_NE(untraced.find("\"wait_ns\":4"), std::string::npos);
  EXPECT_EQ(untraced.find("\"bytes\""), std::string::npos);  // args stay out
}

// Neither armed nor enabled, a bound tracer keeps no record: the spans
// still run, and the dump lists only the tracks.
TEST(TracerTest, UnarmedUntracedTracerKeepsNoRecord) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  const auto t = tracer.Track("zk0");
  for (std::uint32_t i = 0; i < 2 * obs::Tracer::kTrackCapacity; ++i) {
    tracer.Complete(t, "nic-tx", "net", i, 1, i, {{"wait_ns", 4}});
  }
  obs::Span span(&tracer, t, "zk-rpc", "zk", 9);
  EXPECT_TRUE(span.active());
  span.End();
  std::size_t visited = 0;
  tracer.ForEach(t, [&](const obs::Tracer::Record&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(tracer.size(t), 0u);
  EXPECT_EQ(tracer.admitted(), 0u);
  EXPECT_EQ(tracer.DumpJson(""),
            "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":1,"
            "\"name\":\"thread_name\",\"args\":{\"name\":\"zk0\"}}],"
            "\"displayTimeUnit\":\"ns\"}");
}

// Enabled, the store keeps every span, armed or not.
TEST(TracerTest, EnabledStoreIsUnbounded) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetEnabled(true);
  constexpr std::uint32_t kSpans = 3 * obs::Tracer::kTrackCapacity;
  for (std::uint32_t i = 0; i < kSpans; ++i) {
    tracer.Complete(0, "w", "c", i, 1, 0);
  }
  EXPECT_EQ(tracer.size(0), kSpans);
  EXPECT_EQ(tracer.traced(), kSpans);
  EXPECT_EQ(tracer.events().size(), kSpans);
  EXPECT_EQ(tracer.events().front().start, 0);
}

// Only a dump dir arms the tracer: SLOs alone write no dump.
TEST(TracerTest, IncidentsArmTheTracerOnlyWithADumpDir) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  obs::Incidents incidents;
  incidents.Bind(&sim, &tracer);
  incidents.AddSlo(obs::SloSpec{"create", sim::Ms(1), 0.01});
  EXPECT_FALSE(tracer.armed());
  obs::AnomalyConfig config;
  incidents.Configure(config);
  EXPECT_FALSE(tracer.armed());
  config.dump_dir = "dumps";
  incidents.Configure(config);
  EXPECT_TRUE(tracer.armed());
}

// The bounded store an armed tracer keeps for anomaly dumps: each track
// holds its newest kTrackCapacity records.
std::vector<std::int64_t> Starts(const obs::Tracer& tracer,
                                 obs::TrackId track) {
  std::vector<std::int64_t> out;
  tracer.ForEach(track, [&](const obs::Tracer::Record& r) {
    out.push_back(r.start);
  });
  return out;
}

std::vector<std::int64_t> Range(std::int64_t first, std::int64_t n) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = first + static_cast<std::int64_t>(i);
  }
  return out;
}

constexpr std::int64_t kCap = obs::Tracer::kTrackCapacity;

TEST(FlightRecorderTest, FillsWithoutEvictionUpToCapacity) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetArmed(true);
  for (std::int64_t i = 0; i < kCap; ++i) {
    tracer.Complete(0, "w", "c", i, 10, 0);
  }
  EXPECT_EQ(tracer.size(0), obs::Tracer::kTrackCapacity);
  EXPECT_EQ(tracer.admitted(), obs::Tracer::kTrackCapacity);
  EXPECT_EQ(Starts(tracer, 0), Range(0, kCap));
}

TEST(FlightRecorderTest, RingEvictsOldestKeepsOrder) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetArmed(true);
  for (std::int64_t i = 0; i < kCap + 3; ++i) {
    tracer.Complete(0, "w", "c", i, 10, 0);
  }
  EXPECT_EQ(tracer.size(0), obs::Tracer::kTrackCapacity);
  EXPECT_EQ(tracer.admitted(), obs::Tracer::kTrackCapacity + 3);
  // Oldest-to-newest: the last kTrackCapacity admissions, in order.
  EXPECT_EQ(Starts(tracer, 0), Range(3, kCap));
}

TEST(FlightRecorderTest, TracksAreIndependentAndSeqIsGlobal) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetArmed(true);
  tracer.Complete(0, "a", "c", 1, 1, 0);
  tracer.Complete(2, "b", "c", 2, 1, 0);  // skips track 1
  EXPECT_EQ(tracer.size(0), 1u);
  EXPECT_EQ(tracer.size(1), 0u);
  EXPECT_EQ(tracer.size(2), 1u);
  std::uint64_t last_seq = 0;
  tracer.ForEach(2, [&](const obs::Tracer::Record& r) { last_seq = r.seq; });
  EXPECT_EQ(last_seq, 2u);  // global admission counter
  EXPECT_EQ(Starts(tracer, 7), std::vector<std::int64_t>{});  // unknown track
}

TEST(FlightRecorderTest, ClearResets) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetEnabled(true);
  tracer.Complete(0, "w", "c", 1, 1, 0);
  tracer.Clear();
  EXPECT_EQ(tracer.admitted(), 0u);
  EXPECT_EQ(tracer.traced(), 0u);
  EXPECT_EQ(tracer.size(0), 0u);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(FlightRecorderTest, DumpJsonIsChromeShapedAndDeterministic) {
  auto build = [] {
    sim::Simulation sim(1);
    obs::Tracer tracer;
    tracer.Bind(&sim);
    tracer.SetArmed(true);
    const auto t0 = tracer.Track("zk0");
    const auto t1 = tracer.Track("client0");
    for (std::int64_t i = 0; i < kCap + 2; ++i) {
      tracer.Complete(t0, "fsync-batch", "zk", 1000 * i, 700, 9);
    }
    tracer.Complete(t1, "nic-tx", "net", 400, 100, 9, {{"wait_ns", 25}});
    return tracer.DumpJson("{\"type\":\"test\"}");
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  EXPECT_NE(a.find("\"anomaly\":{\"type\":\"test\"}"), std::string::npos);
  EXPECT_NE(a.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(a.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(a.find("\"zk0\""), std::string::npos);
  EXPECT_NE(a.find("\"fsync-batch\""), std::string::npos);
  EXPECT_NE(a.find("\"seq\":3,\"trace\":9}"), std::string::npos);
  EXPECT_NE(a.find("\"wait_ns\":25"), std::string::npos);
  // The evicted spans (start 0, 1000) are gone from the dump.
  EXPECT_EQ(a.find("\"ts\":0.000"), std::string::npos);
  EXPECT_EQ(a.find("\"ts\":1.000"), std::string::npos);
  // Each track lists its newest kTrackCapacity spans, or all it has.
  auto count = [&a](std::string_view needle) {
    std::size_t n = 0;
    for (std::size_t at = a.find(needle); at != std::string::npos;
         at = a.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("{\"ph\":\"X\",\"pid\":1,\"tid\":1,"),
            obs::Tracer::kTrackCapacity);
  EXPECT_EQ(count("{\"ph\":\"X\",\"pid\":1,\"tid\":2,"), 1u);
}

TEST(FlightRecorderTest, TracerRecordsSpansWhileDisabled) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetArmed(true);
  EXPECT_FALSE(tracer.enabled());
  const auto track = tracer.Track("node0");
  tracer.Complete(track, "work", "cat", 100, 50, 7,
                  {{"wait_ns", 5}, {"bytes", 64}});
  EXPECT_TRUE(tracer.events().empty());  // nothing to export
  ASSERT_EQ(tracer.size(track), 1u);
  tracer.ForEach(track, [&](const obs::Tracer::Record& r) {
    EXPECT_STREQ(r.name, "work");
    EXPECT_EQ(r.start, 100);
    EXPECT_EQ(r.dur, 50);
    EXPECT_EQ(r.trace, 7u);
    EXPECT_EQ(r.wait_ns, 5);
    EXPECT_EQ(r.args, obs::Tracer::kUntraced);  // args not kept
  });
}

// The acceptance chain: one DUFS Create, traced end to end — the root op
// span, the ZK RPC under it, the leader's quorum round, and the journal
// fsync batch all carry the same trace id.
TEST(TraceChainTest, CreateSpansChainThroughStack) {
  TestbedConfig config;
  config.zk_servers = 3;
  config.client_nodes = 1;
  config.backend = BackendKind::kMemFs;
  config.backend_instances = 1;
  config.enable_trace = true;
  Testbed tb(config);
  tb.MountAll();

  // MountAll itself produces spans; keep only the Create's.
  tb.obs().tracer().Clear();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto attr = co_await t.client(0).dufs->Create("/traced", 0644);
    DUFS_CHECK(attr.ok());
  }(tb));

  const auto& events = tb.obs().tracer().events();
  ASSERT_FALSE(events.empty());
  auto find_name = [&](std::string_view name) {
    return std::find_if(events.begin(), events.end(),
                        [&](const obs::Tracer::Event& e) {
                          return e.name == name;
                        });
  };
  auto create = find_name("create");
  ASSERT_NE(create, events.end());
  const obs::TraceId trace = create->trace;
  ASSERT_NE(trace, 0u);

  for (std::string_view name :
       {"zk-rpc", "zk-write", "quorum-round", "fsync-batch"}) {
    auto it = std::find_if(events.begin(), events.end(),
                           [&](const obs::Tracer::Event& e) {
                             return e.name == name && e.trace == trace;
                           });
    EXPECT_NE(it, events.end()) << "missing span in chain: " << name;
  }
  // The chain nests in time: each child starts at or after the root.
  for (const auto& e : events) {
    if (e.trace == trace) {
      EXPECT_GE(e.start, create->start) << e.name;
    }
  }
}

TEST(TraceChainTest, TracingOffByDefaultAndCheap) {
  TestbedConfig config;
  config.zk_servers = 3;
  config.client_nodes = 1;
  config.backend = BackendKind::kMemFs;
  config.backend_instances = 1;
  Testbed tb(config);
  tb.MountAll();
  sim::RunTask(tb.sim(), [](Testbed& t) -> sim::Task<void> {
    auto attr = co_await t.client(0).dufs->Create("/untraced", 0644);
    DUFS_CHECK(attr.ok());
  }(tb));
  EXPECT_FALSE(tb.obs().tracer().enabled());
  EXPECT_TRUE(tb.obs().tracer().events().empty());
  // Metrics still collected even with tracing off.
  const auto merged = tb.obs().metrics().Merged();
  EXPECT_GT(merged.counters.at("zk.requests"), 0u);
  EXPECT_GT(merged.counters.at("zk.writes"), 0u);
}

}  // namespace
}  // namespace dufs
