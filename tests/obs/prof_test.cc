// The coroutine-aware CPU profiler (DESIGN.md §14): deterministic
// count-mode sampling, logical-stack maintenance across suspensions and
// spawns, truncation/overflow accounting, and the signal-mode torture run
// (live SIGPROF delivery over busy scheduler churn — also exercised under
// ASan and DUFS_AUDIT in CI).
#include <gtest/gtest.h>

#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/prof.h"
#include "sim/task.h"

namespace dufs {
namespace {

// CPU seconds consumed so far: ITIMER_PROF fires on CPU time, so the
// signal tests burn and bound on CPU time, not wall time.
double CpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// A client-like actor: one op-class frame held across many suspensions.
sim::Task<void> WorkerLoop(sim::Simulation* sim, int rounds) {
  prof::ProfScope scope("op.work", prof::FrameKind::kOpClass);
  for (int i = 0; i < rounds; ++i) {
    co_await sim->Delay(10);
  }
}

sim::Task<void> Child(sim::Simulation* sim) {
  prof::ProfScope scope("child", prof::FrameKind::kComponent);
  for (int i = 0; i < 20; ++i) {
    co_await sim->Delay(5);
  }
}

sim::Task<void> Parent(sim::Simulation* sim) {
  prof::ProfScope scope("parent", prof::FrameKind::kComponent);
  sim->Spawn(Child(sim));
  co_await sim->Delay(200);
}

// A node-frame actor, as a component under OpScope: the node frame below
// an op-class frame.
sim::Task<void> NodeLoop(sim::Simulation* sim, obs::Name node) {
  prof::ProfScope scope(node, prof::FrameKind::kNode);
  co_await WorkerLoop(sim, 5);
}

// One deterministic mixed workload: timer churn (callback events) plus
// coroutine delay loops (handle events with captured context).
void RunMixedWorkload(std::uint64_t seed, int rounds = 50) {
  sim::Simulation s(seed);
  sim::CurrentSimulationScope scope(&s);
  for (int p = 0; p < 8; ++p) s.Spawn(WorkerLoop(&s, rounds));
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    s.ScheduleFn(static_cast<sim::Duration>(i % 97), [&fired] { ++fired; });
  }
  s.Run();
  ASSERT_EQ(fired, 500);
}

std::string RunCountProfile(std::uint64_t seed, std::uint64_t every,
                            int rounds = 50) {
  prof::Options o;
  o.mode = prof::Options::Mode::kCount;
  o.every = every;
  std::string error;
  EXPECT_TRUE(prof::Start(o, &error)) << error;
  RunMixedWorkload(seed, rounds);
  prof::Stop();
  std::string folded = prof::ExportFolded();
  prof::Reset();
  return folded;
}

TEST(ProfCountModeTest, ByteDeterministicAcrossRuns) {
  const std::string a = RunCountProfile(7, 4);
  const std::string b = RunCountProfile(7, 4);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The logical stacks actually attribute: coroutine frames survive their
  // suspensions, callbacks get the engine frame.
  EXPECT_NE(a.find("op.work"), std::string::npos);
  EXPECT_NE(a.find("engine.callback"), std::string::npos);
}

TEST(ProfCountModeTest, DifferentWorkloadsDiverge) {
  // The equality above is meaningful: a different event mix moves the
  // every-Nth fold points and the per-frame counts.
  EXPECT_NE(RunCountProfile(7, 4, 50), RunCountProfile(7, 4, 80));
}

TEST(ProfCountModeTest, SpawnedTaskInheritsSpawnerContext) {
  prof::Options o;
  o.mode = prof::Options::Mode::kCount;
  o.every = 1;
  std::string error;
  ASSERT_TRUE(prof::Start(o, &error)) << error;
  {
    sim::Simulation s(3);
    sim::CurrentSimulationScope scope(&s);
    s.Spawn(Parent(&s));
    s.Run();
  }
  prof::Stop();
  const std::string folded = prof::ExportFolded();
  prof::Reset();
  // The child's resumes carry the parent frame it was spawned under, even
  // after the parent's scope object itself has died.
  EXPECT_NE(folded.find("parent;child "), std::string::npos) << folded;
}

TEST(ProfCountModeTest, DigestMatchesStats) {
  prof::Options o;
  o.mode = prof::Options::Mode::kCount;
  o.every = 8;
  std::string error;
  ASSERT_TRUE(prof::Start(o, &error)) << error;
  RunMixedWorkload(5);
  prof::Stop();
  const prof::Stats st = prof::GetStats();
  const std::string digest = prof::ExportDigestJson();
  prof::Reset();
  EXPECT_GT(st.samples, 0u);
  EXPECT_EQ(st.dropped, 0u);   // no ring in count mode
  EXPECT_EQ(st.signals, 0u);   // no timer in count mode
  EXPECT_GE(st.dispatches, st.samples * 8);
  EXPECT_NE(digest.find("\"mode\":\"count\""), std::string::npos);
  EXPECT_NE(
      digest.find("\"samples\":" + std::to_string(st.samples)),
      std::string::npos);
}

TEST(ProfContextTest, TruncationIsCountedAndPopsStayBalanced) {
  prof::Options o;
  o.mode = prof::Options::Mode::kCount;
  o.every = 1 << 30;  // never folds; we only exercise the context stack
  std::string error;
  ASSERT_TRUE(prof::Start(o, &error)) << error;
  std::vector<prof::FrameToken> tokens;
  for (int i = 0; i < 40; ++i) {
    tokens.push_back(
        prof::PushFrame("deep", prof::FrameKind::kComponent));
  }
  EXPECT_EQ(prof::GetStats().truncated,
            40u - prof::internal::kMaxDepth);
  EXPECT_EQ(prof::internal::g_ctx.depth.load(std::memory_order_relaxed),
            prof::internal::kMaxDepth);
  for (int i = 39; i >= 0; --i) prof::PopFrame(tokens[static_cast<std::size_t>(i)]);
  EXPECT_EQ(prof::internal::g_ctx.depth.load(std::memory_order_relaxed), 0u);
  prof::Stop();
  prof::Reset();
}

TEST(ProfContextTest, DisabledHooksAreInert) {
  ASSERT_FALSE(prof::Running());
  prof::FrameToken t = prof::PushFrame("x", prof::FrameKind::kComponent);
  EXPECT_FALSE(t.pushed);
  prof::PopFrame(t);  // no-op, must not underflow anything
  EXPECT_EQ(prof::internal::g_ctx.depth.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(prof::CaptureContext(), nullptr);
}

TEST(ProfControlTest, StartRejectsBadOptionsAndDoubleStart) {
  prof::Options bad;
  bad.mode = prof::Options::Mode::kCount;
  bad.every = 0;
  std::string error;
  EXPECT_FALSE(prof::Start(bad, &error));
  EXPECT_FALSE(error.empty());

  prof::Options ok;
  ok.mode = prof::Options::Mode::kCount;
  ok.every = 4;
  ASSERT_TRUE(prof::Start(ok, &error)) << error;
  EXPECT_TRUE(prof::Running());
  EXPECT_FALSE(prof::Start(ok, &error));  // already running
  prof::Stop();
  EXPECT_FALSE(prof::Running());
  prof::Stop();  // idempotent
  prof::Reset();
}

// --- name sources ---------------------------------------------------------
// Besides checked literals, an obs::Name comes from prof::InternName (node
// names built at runtime) or is the default "" of an unattached NodeObs.

TEST(ProfNameTest, InternNameIsStableAndOutlivesItsSource) {
  auto source = std::make_unique<std::string>("intern-test-node-long-name-0");
  const obs::Name a = prof::InternName(*source);
  EXPECT_NE(a.c_str(), source->c_str());  // a copy, not the caller's buffer
  source.reset();
  const obs::Name b = prof::InternName(std::string("intern-test-node-") +
                                       "long-name-0");
  EXPECT_EQ(a.c_str(), b.c_str());
  EXPECT_STREQ(a.c_str(), "intern-test-node-long-name-0");
}

TEST(ProfNameTest, InternedNodeFrameFoldsAsNode) {
  const obs::Name node = prof::InternName("intern" + std::to_string(3));
  prof::Options o;
  o.mode = prof::Options::Mode::kCount;
  o.every = 1;
  std::string error;
  ASSERT_TRUE(prof::Start(o, &error)) << error;
  {
    sim::Simulation s(3);
    sim::CurrentSimulationScope scope(&s);
    s.Spawn(NodeLoop(&s, node));
    s.Run();
  }
  prof::Stop();
  const std::string folded = prof::ExportFolded();
  const std::string digest = prof::ExportDigestJson();
  prof::Reset();
  EXPECT_NE(folded.find("intern3;op.work "), std::string::npos) << folded;
  EXPECT_NE(digest.find("{\"name\":\"intern3\",\"kind\":\"node\""),
            std::string::npos)
      << digest;
}

TEST(ProfNameTest, UnattachedNodeObsPushesNoFrame) {
  const obs::NodeObs unattached;
  EXPECT_TRUE(unattached.prof_name.empty());
  prof::Options o;
  o.mode = prof::Options::Mode::kCount;
  o.every = 1 << 30;  // never folds; only the context stack is exercised
  std::string error;
  ASSERT_TRUE(prof::Start(o, &error)) << error;
  {
    prof::ProfScope scope(unattached.prof_name, prof::FrameKind::kNode);
    EXPECT_EQ(prof::internal::g_ctx.depth.load(std::memory_order_relaxed),
              0u);
  }
  prof::FrameToken t =
      prof::PushFrame(unattached.prof_name, prof::FrameKind::kNode);
  EXPECT_FALSE(t.pushed);
  prof::Stop();
  prof::Reset();
}

// --- signal mode ----------------------------------------------------------
// ITIMER_PROF fires on consumed CPU time, so these tests burn CPU in a
// bounded loop and skip (rather than flake) on platforms or environments
// where no SIGPROF arrives.

TEST(ProfSignalModeTest, TortureUnderSchedulerChurn) {
  prof::Options o;
  o.hz = 10000;
  o.ring_slots = 64;
  std::string error;
  if (!prof::Start(o, &error)) GTEST_SKIP() << error;
  const double start = CpuSeconds();
  while (prof::GetStats().signals < 64 && CpuSeconds() - start < 2.0) {
    // Busy churn: context captures, snapshot restores and watermark drains
    // all run under live SIGPROF delivery.
    RunMixedWorkload(11);
  }
  prof::Stop();
  const prof::Stats st = prof::GetStats();
  const std::string folded = prof::ExportFolded();
  prof::Reset();
  if (st.signals == 0) GTEST_SKIP() << "no SIGPROF delivered";
  // Exact accounting: every delivery was either admitted to the ring (and
  // folded on drain) or counted as dropped — never lost, never corrupted.
  EXPECT_EQ(st.samples + st.dropped, st.signals);
  EXPECT_FALSE(folded.empty());
}

TEST(ProfSignalModeTest, RingOverflowIsCountedNotCorrupted) {
  prof::Options o;
  o.hz = 10000;
  o.ring_slots = 8;
  std::string error;
  if (!prof::Start(o, &error)) GTEST_SKIP() << error;
  // Pure spin, no sim dispatches: nothing drains the tiny ring until Stop,
  // so deliveries beyond its capacity must be dropped and counted.
  const double start = CpuSeconds();
  volatile std::uint64_t sink = 0;
  while (prof::GetStats().signals < 64 && CpuSeconds() - start < 2.0) {
    for (int i = 0; i < 100000; ++i) sink = sink + 1;
  }
  prof::Stop();
  const prof::Stats st = prof::GetStats();
  const std::string folded = prof::ExportFolded();
  prof::Reset();
  if (st.signals <= 8) GTEST_SKIP() << "not enough SIGPROF deliveries";
  EXPECT_GT(st.dropped, 0u);
  EXPECT_EQ(st.samples + st.dropped, st.signals);
  // Bare-stack samples land on the sentinel frame instead of vanishing.
  EXPECT_NE(folded.find("unattributed"), std::string::npos) << folded;
}

}  // namespace
}  // namespace dufs
