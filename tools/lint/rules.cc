#include "rules.h"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <utility>

#include "lexer.h"
#include "symtab.h"
#include "token_util.h"

namespace dufs::lint {

namespace {

// First `&` in the parameter list `tokens[open]=='('` .. its matching `)`
// that binds a parameter by reference (prev token is a type-ish identifier
// or `>`), at paren depth 1. Returns its line, or 0 when none.
// `Simulation&` parameters are exempt: a coroutine frame cannot outlive the
// Simulation that drives it (RunTask runs it to completion; Shutdown()
// destroys detached frames before the Simulation dies).
int FindRefParamLine(const std::vector<Token>& toks, std::size_t open,
                     std::size_t close) {
  int depth = 0;
  for (std::size_t i = open; i < close; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") ++depth;
      if (t.text == ")") --depth;
    }
    if (depth != 1 || i == open) continue;
    if (IsPunct(t, "&")) {
      const Token& prev = toks[i - 1];
      if (prev.kind == TokKind::kIdentifier && prev.text == "Simulation") {
        continue;
      }
      if ((prev.kind == TokKind::kIdentifier && !IsExprKeyword(prev.text)) ||
          IsPunct(prev, ">") || IsPunct(prev, ">>")) {
        return t.line;
      }
    }
  }
  return 0;
}

// coro-ref-param: a named function whose return type is Task<...> or
// Future<...> and that takes a parameter by reference. Lambda parameters are
// deliberately exempt: the repo's blessed pattern is an immediately-invoked
// lambda whose referents are pinned by the caller that drives it (RunTask).
void CoroRefParam(const LexedFile& f, std::vector<Finding>* out) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!(IsId(toks[i], "Task") || IsId(toks[i], "Future"))) continue;
    if (!IsPunct(toks[i + 1], "<")) continue;
    std::size_t j = MatchAngle(toks, i + 1);
    if (j == kNpos || j >= toks.size()) continue;
    std::size_t name_tok = kNpos;
    while (j + 1 < toks.size() && toks[j].kind == TokKind::kIdentifier &&
           !IsExprKeyword(toks[j].text)) {
      name_tok = j;
      if (IsPunct(toks[j + 1], "::")) {
        j += 2;
      } else {
        ++j;
        break;
      }
    }
    if (name_tok == kNpos || j >= toks.size() || !IsPunct(toks[j], "(")) {
      continue;
    }
    const std::size_t close = MatchParen(toks, j);
    if (close == kNpos) continue;
    const int ref_line = FindRefParamLine(toks, j, close - 1);
    if (ref_line != 0) {
      out->push_back(Finding{
          f.path, ref_line, "coro-ref-param",
          "reference parameter on coroutine function `" +
              toks[name_tok].text +
              "`: the referent must outlive every suspension of the frame; "
              "take it by value (or annotate a provably-safe out-param)"});
    }
  }
}

// await-holding-ref: the held-ref facts are already resolved per function
// by BuildFileSummary (symtab.h); this only words them.
void AwaitHoldingRef(const LexedFile& f, std::vector<Finding>* out) {
  for (const FunctionSummary& fn : BuildFileSummary(f).functions) {
    for (const HeldRef& r : fn.held_refs) {
      const std::string what = r.iterator ? "iterator" : "reference";
      const std::string where =
          r.container.empty() ? "a container" : "`" + r.container + "`";
      out->push_back(Finding{
          f.path, r.use_line, "await-holding-ref",
          "`" + r.name + "` (" + what + " into " + where +
              ", obtained on line " + std::to_string(r.line) +
              ") is used after the co_await on line " +
              std::to_string(r.await_line) +
              "; the container can mutate while suspended — re-acquire it "
              "after resuming"});
    }
  }
}

// `// dufs-lint: allow(...)`: a trailing comment covers its own line; a
// comment alone on a line covers the next line.
bool IsSuppressed(const Finding& finding,
                  const std::vector<Suppression>& sups) {
  for (const auto& sup : sups) {
    const int covered = sup.alone ? sup.line + 1 : sup.line;
    if (covered != finding.line) continue;
    for (const auto& rule : sup.rules) {
      if (rule == "all" || rule == finding.rule) return true;
    }
  }
  return false;
}

}  // namespace

const std::vector<RuleDoc>& RuleDocs() {
  static const std::vector<RuleDoc> kDocs = {
      {"coro-ref-param",
       "no reference parameters on named coroutine functions",
       "A coroutine's reference parameter is stored in the frame as a "
       "reference; the referent must outlive every suspension of the frame, "
       "which the caller cannot see from the signature. Take parameters by "
       "value (strings and small structs move cheaply) so the frame owns "
       "them. Out-parameters that provably outlive the frame may be "
       "annotated `// dufs-lint: allow(coro-ref-param)` with a reason. "
       "Two exemptions: lambda parameters (an immediately-invoked coroutine "
       "lambda whose caller drives it to completion is the blessed way to "
       "pass state without capturing) and `Simulation&` (no frame outlives "
       "the Simulation that drives it).",
       "sim::Task<Status> Lookup(const std::string& path);",
       "sim::Task<Status> Lookup(std::string path);"},
      {"await-holding-ref",
       "no container reference/iterator held across a co_await",
       "While a coroutine is suspended, anything else may run: the "
       "container behind an iterator or element reference can rehash, "
       "reallocate, or erase. Using the handle after resuming is "
       "use-after-free that ASan only catches on the unlucky interleaving. "
       "Re-acquire the iterator/reference after the co_await (and handle "
       "the element having vanished), or copy the value out before "
       "suspending. Warn-severity: flagged code is suspect, not always "
       "wrong — suppress with a reason when the container is provably "
       "quiescent.",
       "auto it = map_.find(k);\nco_await gate_.Wait();\nUse(it->second);",
       "co_await gate_.Wait();\nauto it = map_.find(k);\nif (it != "
       "map_.end()) Use(it->second);",
       Severity::kWarn},
  };
  return kDocs;
}

Severity RuleSeverity(const std::string& rule) {
  for (const RuleDoc& doc : RuleDocs()) {
    if (rule == doc.id) return doc.severity;
  }
  return Severity::kError;
}

const char* SeverityName(Severity s) {
  return s == Severity::kWarn ? "warn" : "error";
}

std::vector<Finding> LintFile(std::string path, const std::string& content) {
  const LexedFile lexed = Lex(std::move(path), content);
  std::vector<Finding> found;
  CoroRefParam(lexed, &found);
  AwaitHoldingRef(lexed, &found);
  std::erase_if(found, [&lexed](const Finding& f) {
    return IsSuppressed(f, lexed.suppressions);
  });
  std::sort(found.begin(), found.end());
  return found;
}

std::vector<std::string> CollectFiles(const std::string& root,
                                      const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  auto add_tree = [&files](const fs::path& dir) {
    if (!fs::exists(dir)) return;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      const std::string ext = entry.path().extension().string();
      if (entry.is_regular_file() &&
          (ext == ".h" || ext == ".cc" || ext == ".cpp")) {
        files.push_back(entry.path().string());
      }
    }
  };
  if (paths.empty()) {
    for (const char* tree : {"src", "bench", "tests", "examples"}) {
      add_tree(fs::path(root) / tree);
    }
  } else {
    for (const auto& p : paths) {
      if (fs::is_directory(p)) {
        add_tree(p);
      } else {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace dufs::lint
