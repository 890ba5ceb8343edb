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
  ASSERT_EQ(docs.size(), 6u);
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
