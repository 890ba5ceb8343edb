// In-process tests for the per-file dufs_lint rules: every rule gets at
// least one source that must fire (positive) and one conforming rewrite that
// must not (negative), plus the suppression machinery and the per-function
// facts await-holding-ref reads (symtab.h).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lexer.h"
#include "rules.h"
#include "symtab.h"

namespace dufs::lint {
namespace {

std::vector<Finding> Lint(const std::string& path, const std::string& src) {
  return LintFile(path, src);
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  for (const auto& f : findings) out.push_back(f.rule);
  return out;
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

// --- await-holding-ref ----------------------------------------------------

TEST(LintHeldRefTest, IteratorUsedAfterAwaitIsAWarning) {
  const auto f = Lint("src/x.cc",
                      "sim::Task<int> Registry::Lookup(std::string key) {\n"
                      "  auto it = entries_.find(key);\n"
                      "  co_await Flush(0);\n"
                      "  co_return it->second;\n"
                      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "await-holding-ref");
  EXPECT_EQ(f[0].line, 4);
  EXPECT_EQ(RuleSeverity(f[0].rule), Severity::kWarn);
  EXPECT_EQ(RuleSeverity("coro-ref-param"), Severity::kError);
}

TEST(LintHeldRefTest, ElementReferenceUsedAfterAwaitFires) {
  const auto f = Lint("src/x.cc",
                      "sim::Task<int> Bump(std::string key) {\n"
                      "  auto& slot = table_[key];\n"
                      "  co_await Flush(0);\n"
                      "  co_return ++slot;\n"
                      "}\n");
  EXPECT_EQ(Rules(f), std::vector<std::string>{"await-holding-ref"});
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
      "sim::Task<int> L(int& n);  // dufs-lint: allow(await-holding-ref)\n");
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

// The two rules run as separate passes; their findings interleave by line.
TEST(LintEngineTest, FindingsSortedByLineThenRule) {
  const auto f = Lint("src/x.cc",
                      "sim::Task<int> K(int& n) {\n"
                      "  auto it = map_.find(n);\n"
                      "  co_await Flush();\n"
                      "  co_return it->second;\n"
                      "}\n"
                      "sim::Task<int> L(int& n);\n");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[0].rule, "coro-ref-param");
  EXPECT_EQ(f[1].line, 4);
  EXPECT_EQ(f[1].rule, "await-holding-ref");
  EXPECT_EQ(f[2].line, 6);
  for (const auto& finding : f) EXPECT_EQ(finding.file, "src/x.cc");
}

TEST(LintEngineTest, EveryRuleHasDocumentation) {
  const auto& docs = RuleDocs();
  ASSERT_EQ(docs.size(), 2u);
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

// The tree walk takes examples/ and its .cpp files alongside src/, bench/
// and tests/, and skips other extensions and directories.
TEST(LintEngineTest, TreeWalkCollectsExamplesCpp) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "dufs_lint_tree";
  fs::remove_all(root);
  for (const char* file :
       {"examples/demo.cpp", "src/a.h", "src/a.cc", "src/notes.txt",
        "tests/t.cc", "tools/x.cc"}) {
    fs::create_directories((root / file).parent_path());
    std::ofstream(root / file) << "int x;\n";
  }
  std::vector<std::string> got;
  for (const std::string& f : CollectFiles(root.string(), {})) {
    got.push_back(fs::relative(f, root).generic_string());
  }
  EXPECT_EQ(got, (std::vector<std::string>{"examples/demo.cpp", "src/a.cc",
                                           "src/a.h", "tests/t.cc"}));
  fs::remove_all(root);
}


// --- per-function facts (symtab.h) ---------------------------------------

FileSummary Summarize(const std::string& src) {
  return BuildFileSummary(Lex("src/x.cc", src));
}

const FunctionSummary* FindFn(const FileSummary& s, const std::string& name) {
  for (const auto& fn : s.functions) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

TEST(SymtabTest, ExtractsSignatureAndBodyFacts) {
  const auto s = Summarize(
      "sim::Task<int> Server::Handle(std::string& req, Simulation& sim,\n"
      "                              int* out) {\n"
      "  co_await sim.Delay(1);\n"
      "  co_return Reply(req);\n"
      "}\n"
      "sim::Task<int> Declared(int n);\n");
  ASSERT_EQ(s.functions.size(), 1u);
  const auto* fn = FindFn(s, "Handle");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->line, 1);
  EXPECT_TRUE(fn->is_coroutine);
  EXPECT_TRUE(fn->held_refs.empty());
  // A declaration has no body to check.
  EXPECT_EQ(FindFn(s, "Declared"), nullptr);
}

TEST(SymtabTest, LambdaBodyDoesNotMakeTheEnclosingFunctionACoroutine) {
  const auto s = Summarize(
      "double Measure(Engine& e) {\n"
      "  e.Spawn([&]() -> sim::Task<void> { co_await e.Step(); }());\n"
      "  return e.Run();\n"
      "}\n");
  const auto* fn = FindFn(s, "Measure");
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->is_coroutine);
}

TEST(SymtabTest, HeldRefNeedsAStatementBoundaryAfterTheAwait) {
  // The iterator is consumed inside the awaiting statement itself: its
  // arguments are evaluated before the frame suspends, so nothing is held.
  const auto same_stmt = Summarize(
      "sim::Task<int> Get(std::string k) {\n"
      "  auto it = map_.find(k);\n"
      "  co_return co_await Read(it->second);\n"
      "}\n");
  ASSERT_NE(FindFn(same_stmt, "Get"), nullptr);
  EXPECT_TRUE(FindFn(same_stmt, "Get")->held_refs.empty());

  const auto later_stmt = Summarize(
      "sim::Task<int> Get(std::string k) {\n"
      "  auto it = map_.find(k);\n"
      "  co_await Flush();\n"
      "  co_return it->second;\n"
      "}\n");
  const auto* fn = FindFn(later_stmt, "Get");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->held_refs.size(), 1u);
  EXPECT_EQ(fn->held_refs[0].name, "it");
  EXPECT_EQ(fn->held_refs[0].container, "map_");
  EXPECT_EQ(fn->held_refs[0].await_line, 3);
  EXPECT_EQ(fn->held_refs[0].use_line, 4);
}

TEST(SymtabTest, HeldRefTrackingStopsWhenTheNameIsRebound) {
  const auto s = Summarize(
      "sim::Task<int> Get(std::string k) {\n"
      "  auto it = map_.find(k);\n"
      "  co_await Flush();\n"
      "  it = map_.find(k);\n"
      "  co_return it->second;\n"
      "}\n");
  const auto* fn = FindFn(s, "Get");
  ASSERT_NE(fn, nullptr);
  EXPECT_TRUE(fn->held_refs.empty());
}

}  // namespace
}  // namespace dufs::lint
