// Repo-specific static-analysis rules for the DUFS tree.
//
// The rules guard coroutine lifetime safety (nothing captured or referenced
// across a co_await may die before the frame does) and header hygiene.
// Determinism itself is checked by what runs: a link-time symbol gate and the
// salted-hash differential (DESIGN.md §8.1). The keys of the byte-compared
// exports are checked by the type system: obs::Name (src/obs/name.h) takes
// only lower-case dotted literals. See `dufs_lint --explain` or DESIGN.md
// §8/§12 for the rule-by-rule rationale.
//
// The analyzer is two-stage. Stage A (AnalyzeFile) is strictly per-file:
// lexing, the local token rules, and FileSummary extraction for the
// cross-TU passes — its output (FileArtifacts) depends only on the file's
// own bytes.
// Stage B (Linter::Run) builds the symbol table over every added file's
// summary and runs the interprocedural dataflow rules (dataflow.h), then
// merges, suppression-filters, and sorts.
//
// Suppression: append `// dufs-lint: allow(<rule>[, <rule>...])` to the
// offending line, or place it alone on the line directly above. The rule
// name `all` suppresses every rule.
#pragma once

#include <string>
#include <vector>

#include "finding.h"
#include "lexer.h"
#include "symtab.h"

namespace dufs::lint {

// Everything stage A produces for one file.
struct FileArtifacts {
  std::string path;
  // Per-file rule findings, already suppression-filtered.
  std::vector<Finding> local;
  // Declaration/body facts for the cross-TU passes.
  FileSummary summary;
  // Kept so stage B can suppression-filter the dataflow findings it
  // attributes to this file.
  std::vector<Suppression> suppressions;
};

// Stage A: lex + local rules + summary extraction. Pure in (path, content).
// Paths should be repo-relative ("src/zk/server.cc") so the path-scoped
// include-hygiene rule works.
FileArtifacts AnalyzeFile(std::string path, const std::string& content);

// Whole-tree linter: add every file, then Run() applies the per-file
// results plus the interprocedural rules and returns suppression-filtered
// findings sorted by (file, line, rule).
class Linter {
 public:
  void AddFile(std::string path, const std::string& content);
  std::vector<Finding> Run();

 private:
  std::vector<FileArtifacts> files_;
};

}  // namespace dufs::lint
