// Repo-specific static-analysis rules for the DUFS tree.
//
// Two rules guard what no runtime gate catches yet: coro-ref-param (a
// coroutine's reference parameter outliving its referent) and
// await-holding-ref (a container handle held across a co_await). Capture,
// escape and held-iterator bugs that a run reaches are caught by ASan with
// detect_stack_use_after_return (the lifetime_probe ctest), and header
// hygiene by compiling every header alone (the header_gate ctest); see
// DESIGN.md §8.1. `dufs_lint --explain` documents each rule.
//
// Every rule is per file: a file's findings depend only on its own bytes.
//
// Suppression: append `// dufs-lint: allow(<rule>[, <rule>...])` to the
// offending line, or place it alone on the line directly above. The rule
// name `all` suppresses every rule.
#pragma once

#include <string>
#include <vector>

namespace dufs::lint {

// Severity of a rule. `kError` findings fail the run (exit 1); `kWarn`
// findings are reported (and land in SARIF as "warning") but only fail under
// --werror. The tree gate runs with --werror, so the live tree is held at
// zero findings of either severity.
enum class Severity {
  kError,
  kWarn,
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

struct RuleDoc {
  const char* id;
  const char* summary;
  const char* rationale;
  const char* bad;   // minimal example that fires
  const char* good;  // the conforming rewrite
  Severity severity = Severity::kError;
};

// Every rule the linter knows, in stable order (the --explain output).
const std::vector<RuleDoc>& RuleDocs();

// Severity for `rule`; unknown rules default to kError.
Severity RuleSeverity(const std::string& rule);

const char* SeverityName(Severity s);  // "error" / "warn"

// Lints one file. `path` should be repo-relative ("src/zk/server.cc"); it
// only labels the findings. Returns suppression-filtered findings sorted by
// (line, rule).
std::vector<Finding> LintFile(std::string path, const std::string& content);

// The files one run lints, sorted: each of `paths` (a directory stands for
// its tree), or with no paths every file under src/, bench/, tests/ and
// examples/ of `root`. A tree contributes its .h, .cc and .cpp files.
std::vector<std::string> CollectFiles(const std::string& root,
                                      const std::vector<std::string>& paths);

}  // namespace dufs::lint
