// obs::Name at the obs API: which names a call site may hand in, and that
// the accepted ones reach the metrics, the trace and the profiler unchanged.
//
// The LintObsNameTest and LintObsKeyTest suites keep the names of the
// dufs_lint cases that guarded these shapes before the type did; each now
// checks the shape against obs::Name. A shape the type rejects is asserted
// here through the name predicate or a type trait, and end to end (as a
// failed compile) by the obs_name_probe ctest.
#include "obs/name.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "obs/obs.h"
#include "obs/prof.h"
#include "sim/simulation.h"

namespace dufs {
namespace {

// Whether the checked-literal constructor accepts `literal`: the predicate
// its consteval body runs (a rejected literal is a compile error).
template <std::size_t N>
constexpr bool Accepted(const char (&literal)[N]) {
  return literal[N - 1] == '\0' &&
         obs::detail::IsLowerCaseDotted(literal, N - 1);
}

template <typename... Args>
constexpr bool CounterTakes =
    std::is_invocable_v<decltype(&obs::Scope::counter), obs::Scope&, Args...>;
template <typename... Args>
constexpr bool TimerTakes =
    std::is_invocable_v<decltype(&obs::NodeObs::timer), const obs::NodeObs&,
                        Args...>;

// A recording tracer plus a node bundle on it, as a testbed wires one.
struct Recorded {
  sim::Simulation sim{1};
  obs::Observability obs;
  obs::NodeObs node;

  Recorded() {
    obs.tracer().Bind(&sim);
    obs.tracer().SetEnabled(true);
    node = obs.Node("node0");
  }

  obs::Tracer::Event last() { return obs.tracer().events().back(); }
};

// The OpScope shape: a Name parameter forwarded into a root span.
obs::Span ForwardRoot(const obs::NodeObs& node, obs::Name name) {
  return obs::Span::Root(node, name, "op");
}

// A free function that shares a registry method's name: not a metric lookup.
std::size_t counter(const std::string& key) { return key.size(); }

// --- names: [a-z][a-z0-9._-]* -----------------------------------------------

TEST(LintObsNameTest, UpperCaseSpanNameFires) {
  static_assert(!Accepted("ZK RPC"));
  static_assert(!Accepted("Zk-rpc"));
  static_assert(!Accepted(""));
  static_assert(
      !std::is_constructible_v<obs::Span, const obs::NodeObs&, const char*,
                               obs::Name>);
}

TEST(LintObsNameTest, ConformingNamesAreClean) {
  static_assert(Accepted("zk-rpc") && Accepted("zk"));
  static_assert(Accepted("zk.requests") && Accepted("op.stat_ns"));
  Recorded r;
  {
    obs::Span span(r.node, "zk-rpc", "zk");
    r.node.counter("zk.requests").Inc();
    r.node.timer("op.stat_ns").Record(5);
  }
  ASSERT_EQ(r.obs.tracer().events().size(), 1u);
  EXPECT_STREQ(r.last().name, "zk-rpc");
  EXPECT_STREQ(r.last().cat, "zk");
  const auto merged = r.obs.metrics().Merged();
  EXPECT_EQ(merged.counters.at("zk.requests"), 1u);
  EXPECT_EQ(merged.histograms.at("op.stat_ns").count(), 1u);
}

TEST(LintObsNameTest, BadCounterNameFires) {
  static_assert(!Accepted("Zk.Requests"));
  static_assert(!Accepted("zk requests"));
  static_assert(!Accepted("9zk"));
  static_assert(CounterTakes<obs::Name>);
}

TEST(LintObsNameTest, NestedCallArgumentsAreNotChecked) {
  // Only names are checked; a span arg's value is free text.
  Recorded r;
  {
    obs::Span span(r.node, "zk-rpc", "zk");
    span.ArgStr("detail", std::string("UP ") + "And Running");
  }
  ASSERT_EQ(r.obs.tracer().events().size(), 1u);
  ASSERT_EQ(r.last().args.size(), 1u);
  EXPECT_STREQ(r.last().args[0].key, "detail");
  EXPECT_EQ(r.last().args[0].str, "UP And Running");
}

TEST(LintObsNameTest, BadProfScopeNameFiresSpanNameRule) {
  static_assert(!Accepted("Engine Wheel"));
  static_assert(Accepted("engine.wheel"));
  static_assert(
      std::is_constructible_v<prof::ProfScope, obs::Name, prof::FrameKind>);
}

// --- keys: checked literals only ------------------------------------------

TEST(LintObsKeyTest, ConcatenatedCounterKeyFires) {
  // ("op." + phase + "_count").c_str() is a const char*, and a std::string
  // key is no better: neither converts to obs::Name.
  static_assert(!std::is_convertible_v<const char*, obs::Name>);
  static_assert(!std::is_constructible_v<obs::Name, const char*>);
  static_assert(!CounterTakes<const char*>);
  static_assert(!CounterTakes<std::string>);
}

TEST(LintObsKeyTest, VariableTimerKeyFires) {
  static_assert(!TimerTakes<const std::string&>);
  static_assert(!TimerTakes<const char*>);
  static_assert(TimerTakes<obs::Name>);
}

TEST(LintObsKeyTest, LiteralKeysAreClean) {
  obs::MetricsRegistry reg;
  obs::Scope* scope = &reg.scope("zk0");
  scope->counter("zk.requests").Inc();
  scope->gauge("zk.read_queue").Set(3);
  reg.scope("a").histogram("op.stat_ns").Record(7);
  EXPECT_EQ(scope->counters().count("zk.requests"), 1u);
  EXPECT_EQ(scope->gauges().count("zk.read_queue"), 1u);
  EXPECT_EQ(reg.scope("a").histograms().count("op.stat_ns"), 1u);
}

TEST(LintObsKeyTest, DeclarationsAndFreeFunctionsAreNotLookups) {
  // Code outside the obs API keeps std::string keys: Name is not a string
  // type and a same-named free function is untouched by it.
  static_assert(!std::is_convertible_v<obs::Name, std::string>);
  const std::string key = "Any Runtime Key";
  EXPECT_EQ(counter(key), key.size());
}

TEST(LintObsKeyTest, ObsForwardersAreExempt) {
  // The NodeObs forwarders take obs::Name too, and hand it to the scope.
  static_assert(!std::is_invocable_v<decltype(&obs::NodeObs::counter),
                                     const obs::NodeObs&, const std::string&>);
  obs::Observability o;
  const obs::NodeObs node = o.Node("zk0");
  node.counter("zk.requests").Inc();
  node.counter("zk.requests").Inc();
  node.gauge("zk.read_queue").Set(2);
  node.histogram("op.stat_ns").Record(1);
  obs::Scope& scope = o.metrics().scope("zk0");
  EXPECT_EQ(scope.counter("zk.requests").value(), 2u);
  EXPECT_EQ(scope.gauges().count("zk.read_queue"), 1u);
  EXPECT_EQ(scope.histograms().count("op.stat_ns"), 1u);
  // An unattached bundle forwards to nothing.
  const obs::NodeObs unattached;
  unattached.counter("zk.requests").Inc();
}

TEST(LintObsKeyTest, RuntimeSpanNameFires) {
  static_assert(
      !std::is_constructible_v<obs::Span, const obs::NodeObs&,
                               const char*, const char*>);
  static_assert(
      !std::is_constructible_v<obs::Span, const obs::NodeObs&,
                               std::string, obs::Name>);
  static_assert(
      std::is_constructible_v<obs::Span, const obs::NodeObs&, obs::Name,
                              obs::Name>);
}

TEST(LintObsKeyTest, ForwardedSpanNameParamIsTolerated) {
  // Forwarding a Name parameter (as OpScope does) keeps the caller's literal;
  // a forwarded const char* is rejected (RuntimeSpanNameFires).
  Recorded r;
  {
    obs::Span span = ForwardRoot(r.node, "stat");
    EXPECT_TRUE(span.active());
  }
  ASSERT_EQ(r.obs.tracer().events().size(), 1u);
  EXPECT_STREQ(r.last().name, "stat");
  EXPECT_STREQ(r.last().cat, "op");
  EXPECT_NE(r.last().trace, 0u);
}

TEST(LintObsKeyTest, RuntimeProfScopeNameFires) {
  // Frame names are held by pointer inside samples: a runtime-built one
  // must come through prof::InternName.
  static_assert(
      !std::is_constructible_v<prof::ProfScope, const char*, prof::FrameKind>);
  static_assert(!std::is_constructible_v<prof::ProfScope, std::string,
                                         prof::FrameKind>);
  static_assert(!std::is_invocable_v<decltype(&prof::PushFrame), const char*,
                                     prof::FrameKind>);
}

TEST(LintObsKeyTest, LiteralAndInternedProfScopeNamesAreClean) {
  obs::Observability o;
  const obs::NodeObs node = o.Node("client7");
  EXPECT_STREQ(node.prof_name.c_str(), "client7");
  EXPECT_EQ(node.prof_name.c_str(),
            prof::InternName(std::string("client") + "7").c_str());
  prof::Options opts;
  opts.mode = prof::Options::Mode::kCount;
  opts.every = 1 << 30;  // never folds; only the context stack is exercised
  std::string error;
  ASSERT_TRUE(prof::Start(opts, &error)) << error;
  {
    prof::ProfScope a("engine.wheel", prof::FrameKind::kEnginePhase);
    prof::ProfScope b(node.prof_name, prof::FrameKind::kNode);
    EXPECT_EQ(prof::internal::g_ctx.depth.load(std::memory_order_relaxed),
              2u);
  }
  EXPECT_EQ(prof::internal::g_ctx.depth.load(std::memory_order_relaxed), 0u);
  prof::Stop();
  prof::Reset();
}

}  // namespace
}  // namespace dufs
