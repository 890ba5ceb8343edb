// Tests for the cross-TU analyzer (stage B): symbol-table extraction and
// the interprocedural dataflow rules. The on-disk fixture mini-tree
// (tests/lint/fixtures/tree, path baked in as DUFS_LINT_FIXTURE_TREE) pins
// each rule's TP/TN/suppression behavior against real files; the inline
// tests pin individual extraction facts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "dataflow.h"
#include "lexer.h"
#include "rules.h"
#include "symtab.h"

namespace dufs::lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Loads the whole fixture tree (paths relative to the tree root, sorted)
// into a Linter, optionally restricted to a subset of relative paths.
std::vector<Finding> LintFixtureTree(
    const std::set<std::string>& only = {}) {
  const fs::path root(DUFS_LINT_FIXTURE_TREE);
  std::vector<std::string> rels;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) continue;
    rels.push_back(fs::relative(entry.path(), root).generic_string());
  }
  std::sort(rels.begin(), rels.end());
  Linter linter;
  for (const auto& rel : rels) {
    if (!only.empty() && only.count(rel) == 0) continue;
    linter.AddFile(rel, ReadFile(root / rel));
  }
  return linter.Run();
}

std::vector<std::tuple<std::string, int, std::string>> Keys(
    const std::vector<Finding>& findings, const std::string& rule = "") {
  std::vector<std::tuple<std::string, int, std::string>> out;
  for (const auto& f : findings) {
    if (rule.empty() || f.rule == rule) {
      out.emplace_back(f.file, f.line, f.rule);
    }
  }
  return out;
}

// --- fixture tree: every rule's TP/TN/suppression behavior ----------------

TEST(FixtureTreeTest, ExactFindingSet) {
  const auto keys = Keys(LintFixtureTree());
  const std::vector<std::tuple<std::string, int, std::string>> want = {
      {"src/api.h", 14, "coro-ref-param"},
      {"src/api.h", 22, "coro-ref-param"},
      {"src/escape.cc", 15, "coro-ref-escape"},
      {"src/escape.cc", 21, "coro-ref-escape"},
      {"src/escape.cc", 26, "coro-ref-escape"},
      {"src/holder.cc", 8, "coro-ref-param"},
      {"src/holder.cc", 11, "await-holding-ref"},
      {"src/holder.cc", 16, "coro-ref-param"},
  };
  EXPECT_EQ(keys, want);
}

TEST(FixtureTreeTest, EscapeRuleNeedsTheCrossTuTable) {
  // Without api.h's coroutine declarations in the symbol table, the very
  // same call sites are unresolvable and must stay silent.
  const auto f = LintFixtureTree({"src/escape.cc"});
  EXPECT_TRUE(Keys(f, "coro-ref-escape").empty());
}

TEST(FixtureTreeTest, AwaitHoldingRefIsWarnSeverity) {
  for (const auto& f : LintFixtureTree()) {
    if (f.rule == "await-holding-ref") {
      EXPECT_EQ(RuleSeverity(f.rule), Severity::kWarn);
    } else {
      EXPECT_EQ(RuleSeverity(f.rule), Severity::kError) << f.rule;
    }
  }
}

// --- symbol-table extraction ----------------------------------------------

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
      "}\n");
  const auto* fn = FindFn(s, "Handle");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->qualifier, "Server");
  EXPECT_TRUE(fn->returns_task);
  EXPECT_TRUE(fn->is_coroutine);
  EXPECT_TRUE(fn->has_body);
  ASSERT_EQ(fn->params.size(), 3u);
  EXPECT_TRUE(fn->params[0].is_ref);
  EXPECT_FALSE(fn->params[0].is_simulation);
  EXPECT_TRUE(fn->params[1].is_simulation);
  EXPECT_TRUE(fn->params[2].is_ptr);
  EXPECT_EQ(fn->params[2].name, "out");
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

TEST(SymtabTest, CallSitesRecordAwaitAndBareArguments) {
  const auto s = Summarize(
      "void Drive(std::string& buf, Scheduler& sched) {\n"
      "  sched.Enqueue(Fetch(buf, 3));\n"
      "}\n"
      "sim::Task<void> Waits() { co_await Fetch(x, 1); }\n");
  const auto* drive = FindFn(s, "Drive");
  ASSERT_NE(drive, nullptr);
  const CallSite* fetch = nullptr;
  for (const auto& c : drive->calls) {
    if (c.callee == "Fetch") fetch = &c;
  }
  ASSERT_NE(fetch, nullptr);
  EXPECT_FALSE(fetch->awaited);
  ASSERT_EQ(fetch->bare_args.size(), 2u);
  EXPECT_EQ(fetch->bare_args[0], "buf");

  const auto* waits = FindFn(s, "Waits");
  ASSERT_NE(waits, nullptr);
  ASSERT_EQ(waits->calls.size(), 1u);
  EXPECT_TRUE(waits->calls[0].awaited);
}

}  // namespace
}  // namespace dufs::lint
