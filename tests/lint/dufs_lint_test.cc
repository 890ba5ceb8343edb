// In-process fixture tests for the dufs_lint rule engine: every rule gets at
// least one source that must fire (positive) and one conforming rewrite that
// must not (negative), plus the suppression machinery.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rules.h"

namespace dufs::lint {
namespace {

std::vector<Finding> Lint(const std::string& path, const std::string& src) {
  Linter linter;
  linter.AddFile(path, src);
  return linter.Run();
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  for (const auto& f : findings) out.push_back(f.rule);
  return out;
}

// --- coro-capture-default -------------------------------------------------

TEST(LintCaptureTest, RefDefaultCaptureInCoroutineFires) {
  const auto f = Lint("src/x.cc",
                      "void F(Simulation& sim, int d) {\n"
                      "  sim.Spawn([&]() -> sim::Task<void> {\n"
                      "    co_await sim.Delay(d);\n"
                      "  }());\n"
                      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-capture-default");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintCaptureTest, CopyDefaultCaptureInCoroutineFires) {
  const auto f = Lint("src/x.cc",
                      "auto T(int d) {\n"
                      "  return [=]() -> sim::Task<int> { co_return d; }();\n"
                      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-capture-default");
}

TEST(LintCaptureTest, CapturelessCoroutineLambdaIsClean) {
  const auto f = Lint("src/x.cc",
                      "void F(Simulation& sim, int d) {\n"
                      "  sim.Spawn([](Simulation& s, int v) -> sim::Task<void> {\n"
                      "    co_await s.Delay(v);\n"
                      "  }(sim, d));\n"
                      "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintCaptureTest, RefDefaultCaptureInPlainLambdaIsClean) {
  const auto f = Lint("src/x.cc",
                      "int F(int d) {\n"
                      "  auto add = [&](int x) { return x + d; };\n"
                      "  return add(1);\n"
                      "}\n");
  EXPECT_TRUE(f.empty());
}

// --- coro-capture-ref -----------------------------------------------------

TEST(LintCaptureTest, ExplicitRefCaptureInCoroutineFires) {
  const auto f = Lint("src/x.cc",
                      "auto T(Config& cfg) {\n"
                      "  return [&cfg]() -> sim::Task<int> { co_return cfg.n; }();\n"
                      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-capture-ref");
}

TEST(LintCaptureTest, ThisCaptureInCoroutineFires) {
  const auto f = Lint("src/x.cc",
                      "sim::Task<int> C::T() {\n"
                      "  auto t = [this]() -> sim::Task<int> { co_return n_; }();\n"
                      "  co_return co_await std::move(t);\n"
                      "}\n");
  EXPECT_EQ(Rules(f), std::vector<std::string>{"coro-capture-ref"});
}

TEST(LintCaptureTest, ValueCaptureInCoroutineIsClean) {
  const auto f = Lint("src/x.cc",
                      "auto T(Config cfg) {\n"
                      "  return [cfg]() -> sim::Task<int> { co_return cfg.n; }();\n"
                      "}\n");
  EXPECT_TRUE(f.empty());
}

// A lambda returning sim::Task is a coroutine factory even without co_* in
// its (non-coroutine) body; its captures obey the same rules.
TEST(LintCaptureTest, TaskReturningLambdaWithoutCoAwaitStillChecked) {
  const auto f = Lint("src/x.cc",
                      "void F(C& c) {\n"
                      "  auto make = [&c]() -> sim::Task<int> {\n"
                      "    co_return c.n;\n"
                      "  };\n"
                      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-capture-ref");
}

// --- coro-ref-param -------------------------------------------------------

TEST(LintRefParamTest, ConstRefParamOnCoroutineFires) {
  const auto f =
      Lint("src/x.h",
           "#pragma once\n"
           "sim::Task<Status> Lookup(const std::string& path);\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-ref-param");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintRefParamTest, ByValueParamIsClean) {
  const auto f = Lint("src/x.h",
                      "#pragma once\n"
                      "sim::Task<Status> Lookup(std::string path);\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintRefParamTest, SimulationRefIsExempt) {
  const auto f = Lint("src/x.h",
                      "#pragma once\n"
                      "sim::Task<int> Add(Simulation& sim, int a, int b);\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintRefParamTest, LambdaParamsAreExempt) {
  const auto f =
      Lint("src/x.cc",
           "void F(Simulation& sim, Fixture& fx) {\n"
           "  RunTask(sim, [](Fixture& f) -> sim::Task<void> {\n"
           "    co_await f.Step();\n"
           "  }(fx));\n"
           "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintRefParamTest, NonCoroutineRefParamIsClean) {
  const auto f = Lint("src/x.h",
                      "#pragma once\n"
                      "Status Lookup(const std::string& path);\n");
  EXPECT_TRUE(f.empty());
}

// --- include-hygiene ------------------------------------------------------

TEST(LintIncludeTest, MissingPragmaOnceFires) {
  const auto f = Lint("src/x.h", "struct S {};\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-hygiene");
}

TEST(LintIncludeTest, PragmaOnceAfterCodeFires) {
  const auto f = Lint("src/x.h",
                      "struct S {};\n"
                      "#pragma once\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-hygiene");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintIncludeTest, UsingNamespaceInHeaderFires) {
  const auto f = Lint("src/x.h",
                      "#pragma once\n"
                      "using namespace std;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-hygiene");
}

TEST(LintIncludeTest, ParentEscapingIncludeFires) {
  const auto f = Lint("src/zk/x.cc",
                      "#include \"zk/x.h\"\n"
                      "#include \"../common/log.h\"\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-hygiene");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintIncludeTest, SelfIncludeNotFirstFires) {
  const auto f = Lint("src/zk/x.cc",
                      "#include <vector>\n"
                      "#include \"zk/x.h\"\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-hygiene");
}

TEST(LintIncludeTest, WellFormedPairIsClean) {
  Linter linter;
  linter.AddFile("src/zk/x.h",
                 "#pragma once\n"
                 "#include <string>\n"
                 "struct S {};\n");
  linter.AddFile("src/zk/x.cc",
                 "#include \"zk/x.h\"\n"
                 "#include <vector>\n");
  EXPECT_TRUE(linter.Run().empty());
}

TEST(LintIncludeTest, TestFileWithoutSelfHeaderIsClean) {
  const auto f = Lint("tests/zk/x_test.cc", "#include <vector>\n");
  EXPECT_TRUE(f.empty());
}

// --- trace-span-name ------------------------------------------------------

TEST(LintObsNameTest, UpperCaseSpanNameFires) {
  const auto f =
      Lint("src/x.cc", "obs::Span span(obs_, \"ZK RPC\", \"zk\");\n");
  ASSERT_GE(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "trace-span-name");
}

TEST(LintObsNameTest, ConformingNamesAreClean) {
  const auto f = Lint("src/x.cc",
                      "obs::Span span(obs_, \"zk-rpc\", \"zk\");\n"
                      "auto c = obs_.counter(\"zk.requests\");\n"
                      "auto t = obs_.timer(\"op.stat_ns\");\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintObsNameTest, BadCounterNameFires) {
  const auto f = Lint("src/x.cc", "auto c = obs_.counter(\"Zk.Requests\");\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "trace-span-name");
}

TEST(LintObsNameTest, NestedCallArgumentsAreNotChecked) {
  // Only depth-1 string literals are names; nested call args are free text.
  const auto f =
      Lint("src/x.cc", "obs::Span span(obs_, \"zk-rpc\", Describe(\"UP\"));\n");
  EXPECT_TRUE(f.empty());
}

// --- obs-key-literal ------------------------------------------------------

TEST(LintObsKeyTest, ConcatenatedCounterKeyFires) {
  const auto f = Lint(
      "src/x.cc", "obs_.counter(\"op.\" + phase + \"_count\").Inc();\n");
  ASSERT_GE(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "obs-key-literal");
}

TEST(LintObsKeyTest, VariableTimerKeyFires) {
  const auto f = Lint("src/x.cc", "auto t = obs_.timer(key);\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "obs-key-literal");
}

TEST(LintObsKeyTest, LiteralKeysAreClean) {
  const auto f = Lint("src/x.cc",
                      "auto c = obs_.counter(\"zk.requests\");\n"
                      "auto g = scope->gauge(\"zk.read_queue\");\n"
                      "auto h = reg.scope(\"a\").histogram(\"op.stat_ns\");\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintObsKeyTest, DeclarationsAndFreeFunctionsAreNotLookups) {
  const auto f = Lint("src/x.h",
                      "#pragma once\n"
                      "Counter counter(const std::string& key);\n"
                      "int n = counter(key);\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintObsKeyTest, ObsForwardersAreExempt) {
  const auto f = Lint("src/obs/obs.h",
                      "#pragma once\n"
                      "Counter counter(const std::string& key) const {\n"
                      "  return metrics->counter(key);\n"
                      "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintObsKeyTest, RuntimeSpanNameFires) {
  const auto f = Lint(
      "src/x.cc",
      "obs::Span span(obs_, (\"zk-\" + kind).c_str(), \"zk\");\n");
  ASSERT_GE(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "obs-key-literal");
}

TEST(LintObsKeyTest, ForwardedSpanNameParamIsTolerated) {
  // OpScope forwards a `const char* name` parameter; a bare identifier in a
  // span constructor is allowed — only runtime assembly is flagged.
  const auto f = Lint(
      "src/x.cc", "span_ = obs::Span::Root(client.obs_, name, \"op\");\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintObsKeyTest, RuntimeProfScopeNameFires) {
  // ProfScope names are held by pointer inside profiler samples: runtime
  // assembly is both unenumerable and a dangling-pointer hazard.
  const auto f = Lint(
      "src/x.cc",
      "prof::ProfScope s((\"node-\" + id).c_str(), "
      "prof::FrameKind::kNode);\n");
  ASSERT_GE(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "obs-key-literal");
}

TEST(LintObsKeyTest, LiteralAndInternedProfScopeNamesAreClean) {
  const auto f = Lint(
      "src/x.cc",
      "prof::ProfScope a(\"engine.wheel\", prof::FrameKind::kEnginePhase);\n"
      "prof::ProfScope b(obs_.prof_name, prof::FrameKind::kNode);\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintObsNameTest, BadProfScopeNameFiresSpanNameRule) {
  const auto f = Lint(
      "src/x.cc",
      "prof::ProfScope s(\"Engine Wheel\", prof::FrameKind::kEnginePhase);\n");
  ASSERT_GE(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "trace-span-name");
}

// --- suppressions ---------------------------------------------------------

TEST(LintSuppressionTest, TrailingAllowSuppresses) {
  const auto f = Lint(
      "src/x.h",
      "#pragma once\n"
      "sim::Task<Status> L(const std::string& p);  // dufs-lint: allow(coro-ref-param)\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintSuppressionTest, AloneOnPreviousLineSuppresses) {
  const auto f = Lint("src/x.h",
                      "#pragma once\n"
                      "// dufs-lint: allow(coro-ref-param)\n"
                      "sim::Task<Status> L(const std::string& p);\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintSuppressionTest, AllWildcardSuppresses) {
  const auto f = Lint(
      "src/x.cc",
      "sim::Task<int> L(int& n);  // dufs-lint: allow(all)\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintSuppressionTest, WrongRuleDoesNotSuppress) {
  const auto f = Lint(
      "src/x.cc",
      "sim::Task<int> L(int& n);  // dufs-lint: allow(include-hygiene)\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-ref-param");
}

TEST(LintSuppressionTest, AllowOnDistantLineDoesNotSuppress) {
  const auto f = Lint("src/x.cc",
                      "// dufs-lint: allow(coro-ref-param)\n"
                      "int x = 0;\n"
                      "sim::Task<int> L(int& n);\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coro-ref-param");
}

// --- engine plumbing ------------------------------------------------------

TEST(LintEngineTest, FindingsSortedByFileLineRule) {
  Linter linter;
  linter.AddFile("src/b.cc",
                 "sim::Task<int> L(int& n);\nsim::Task<int> M(int& n);\n");
  linter.AddFile("src/a.cc", "sim::Task<int> K(int& n);\n");
  const auto f = linter.Run();
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0].file, "src/a.cc");
  EXPECT_EQ(f[1].file, "src/b.cc");
  EXPECT_EQ(f[1].line, 1);
  EXPECT_EQ(f[2].line, 2);
}

TEST(LintEngineTest, EveryRuleHasDocumentation) {
  const auto& docs = RuleDocs();
  ASSERT_EQ(docs.size(), 8u);
  for (const auto& doc : docs) {
    EXPECT_NE(doc.id, nullptr);
    EXPECT_GT(std::string(doc.summary).size(), 0u);
    EXPECT_GT(std::string(doc.rationale).size(), 0u);
    EXPECT_GT(std::string(doc.bad).size(), 0u);
    EXPECT_GT(std::string(doc.good).size(), 0u);
  }
}

TEST(LintEngineTest, CommentsAndStringsAreNotCode) {
  const auto f = Lint("src/x.cc",
                      "// sim::Task<int> L(int& n); in a comment\n"
                      "const char* s = \"sim::Task<int> L(int& n);\";\n"
                      "/* sim::Task<int> M(int& n); in a block comment */\n");
  EXPECT_TRUE(f.empty());
}

}  // namespace
}  // namespace dufs::lint
