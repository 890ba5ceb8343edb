#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
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

// The (tid, seq) of every event in a dump, in listed order.
std::vector<std::pair<int, std::uint64_t>> DumpedSeqs(const std::string& dump) {
  std::vector<std::pair<int, std::uint64_t>> out;
  for (std::size_t at = dump.find("\"ph\":\"X\""); at != std::string::npos;
       at = dump.find("\"ph\":\"X\"", at + 1)) {
    const std::size_t tid = dump.find("\"tid\":", at) + 6;
    const std::size_t seq = dump.find("\"seq\":", at) + 6;
    out.emplace_back(std::stoi(dump.substr(tid)),
                     std::stoull(dump.substr(seq)));
  }
  return out;
}

// An anomaly dump lists each track's newest kTrackCapacity records, track by
// track in admission order, with seq = global admission index. It is the
// same whether a dump dir (Incidents::Configure) or --trace enabled the
// tracer.
TEST(TracerTest, DumpIsTheSameTracedOrNot) {
  constexpr std::uint32_t kSteps = 900;  // track a: 900 spans, track b: 300
  auto dump = [](bool traced) {
    sim::Simulation sim(1);
    obs::Tracer tracer;
    tracer.Bind(&sim);
    obs::Incidents incidents;
    incidents.Bind(&sim, &tracer);
    const auto a = tracer.Track("zk0");
    const auto b = tracer.Track("client0");
    tracer.Complete(a, "early", "c", 0, 1, 0);  // before enabling: not kept
    if (traced) {
      tracer.SetEnabled(true);
    } else {
      obs::AnomalyConfig config;
      config.dump_dir = "dumps";
      incidents.Configure(config);
    }
    for (std::uint32_t i = 1; i <= kSteps; ++i) {
      tracer.Complete(a, "nic-rx", "net", 1000 * i, 10, i,
                      {{"wait_ns", 4}, {"bytes", 64}});
      if (i % 3 == 0) tracer.Complete(b, "create", "op", 1000 * i, 5, i);
    }
    return tracer.DumpJson("{\"type\":\"test\"}");
  };
  const std::string untraced = dump(false);
  EXPECT_EQ(untraced, dump(true));
  EXPECT_EQ(untraced.find("\"early\""), std::string::npos);
  EXPECT_NE(untraced.find("\"wait_ns\":4"), std::string::npos);
  EXPECT_EQ(untraced.find("\"bytes\""), std::string::npos);  // args stay out

  // Replay the admissions: each track's newest kTrackCapacity seqs.
  std::vector<std::uint64_t> seqs[2];
  std::uint64_t seq = 0;
  for (std::uint32_t i = 1; i <= kSteps; ++i) {
    seqs[0].push_back(++seq);
    if (i % 3 == 0) seqs[1].push_back(++seq);
  }
  std::vector<std::pair<int, std::uint64_t>> want;
  for (int t = 0; t < 2; ++t) {
    const std::size_t n = seqs[t].size();
    const std::size_t skip = n > obs::Tracer::kTrackCapacity
                                 ? n - obs::Tracer::kTrackCapacity
                                 : 0;
    for (std::size_t k = skip; k < n; ++k) want.emplace_back(t + 1, seqs[t][k]);
  }
  ASSERT_EQ(seqs[0].size(), kSteps);  // track a overflows one dump
  EXPECT_EQ(DumpedSeqs(untraced), want);
}

// A bound tracer never enabled keeps no record: the spans still run, and
// the dump lists only the tracks.
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
  EXPECT_EQ(tracer.traced(), 0u);
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.DumpJson(""),
            "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":1,"
            "\"name\":\"thread_name\",\"args\":{\"name\":\"zk0\"}}],"
            "\"displayTimeUnit\":\"ns\"}");
}

// Enabled, the store keeps every span.
TEST(TracerTest, EnabledStoreIsUnbounded) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetEnabled(true);
  constexpr std::uint32_t kSpans = 3 * obs::Tracer::kTrackCapacity;
  for (std::uint32_t i = 0; i < kSpans; ++i) {
    tracer.Complete(0, "w", "c", i, 1, 0);
  }
  EXPECT_EQ(tracer.traced(), kSpans);
  EXPECT_EQ(tracer.events().size(), kSpans);
  EXPECT_EQ(tracer.events().front().start, 0);
}

// Only a dump dir enables the tracer (SLOs alone write no dump), and
// Configure never disables a tracer --trace already enabled.
TEST(TracerTest, IncidentsArmTheTracerOnlyWithADumpDir) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  obs::Incidents incidents;
  incidents.Bind(&sim, &tracer);
  incidents.AddSlo(obs::SloSpec{"create", sim::Ms(1), 0.01});
  EXPECT_FALSE(tracer.enabled());
  obs::AnomalyConfig config;
  incidents.Configure(config);
  EXPECT_FALSE(tracer.enabled());
  config.dump_dir = "dumps";
  incidents.Configure(config);
  EXPECT_TRUE(tracer.enabled());

  obs::Tracer traced;
  traced.Bind(&sim);
  traced.SetEnabled(true);
  obs::Incidents slo_only;
  slo_only.Bind(&sim, &traced);
  slo_only.Configure(obs::AnomalyConfig{});
  EXPECT_TRUE(traced.enabled());
}

TEST(TracerTest, ClearResets) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetEnabled(true);
  tracer.Complete(0, "w", "c", 1, 1, 0, {{"k", 1}});
  tracer.Clear();
  EXPECT_EQ(tracer.traced(), 0u);
  EXPECT_TRUE(tracer.events().empty());
  // The admission count restarts too.
  tracer.Complete(0, "w", "c", 2, 1, 0);
  EXPECT_NE(tracer.DumpJson("").find("\"seq\":1}"), std::string::npos);
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_TRUE(tracer.events()[0].args.empty());
}

TEST(TracerTest, DumpJsonIsChromeShapedAndDeterministic) {
  constexpr std::int64_t kCap = obs::Tracer::kTrackCapacity;
  auto build = [] {
    sim::Simulation sim(1);
    obs::Tracer tracer;
    tracer.Bind(&sim);
    tracer.SetEnabled(true);
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
  // The two oldest spans (start 0, 1000) are past track zk0's newest
  // kTrackCapacity and stay out of the dump.
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

TEST(TracerTest, TracksAreIndependentAndSeqIsGlobal) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetEnabled(true);
  tracer.Complete(0, "a", "c", 1, 1, 0);
  tracer.Complete(2, "b", "c", 2, 1, 0);  // skips track 1
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].track, 0u);
  EXPECT_EQ(events[1].track, 2u);
  // Track 1 lists nothing; track 2's one record has the global seq 2.
  const std::vector<std::pair<int, std::uint64_t>> want = {{1, 1}, {3, 2}};
  EXPECT_EQ(DumpedSeqs(tracer.DumpJson("")), want);
}

// events() views the store: each record's fields and args (an int and a
// string) as passed, still readable once the tracer is disabled, which
// keeps what it holds and records nothing more.
TEST(TracerTest, EventsKeepArgsAfterDisable) {
  sim::Simulation sim(1);
  obs::Tracer tracer;
  tracer.Bind(&sim);
  tracer.SetEnabled(true);
  const auto track = tracer.Track("node0");
  const std::string path = "/a/path/longer/than/the/small/string/buffer";
  tracer.Complete(track, "work", "cat", 100, 50, 7,
                  {{"wait_ns", 5}, {"path", path}});
  tracer.SetEnabled(false);
  tracer.Complete(track, "after", "cat", 200, 1, 8, {{"wait_ns", 6}});
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  const obs::Tracer::Event& e = events[0];
  EXPECT_EQ(e.track, track);
  EXPECT_STREQ(e.name, "work");
  EXPECT_STREQ(e.cat, "cat");
  EXPECT_EQ(e.start, 100);
  EXPECT_EQ(e.dur, 50);
  EXPECT_EQ(e.trace, 7u);
  ASSERT_EQ(e.args.size(), 2u);
  EXPECT_STREQ(e.args[0].key, "wait_ns");
  EXPECT_FALSE(e.args[0].is_string);
  EXPECT_EQ(e.args[0].num, 5);
  EXPECT_STREQ(e.args[1].key, "path");
  EXPECT_TRUE(e.args[1].is_string);
  EXPECT_EQ(e.args[1].str, path);
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
