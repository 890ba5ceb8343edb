#include "rules.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>

#include "dataflow.h"
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

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeaderPath(const std::string& p) { return EndsWith(p, ".h"); }

// ---------------------------------------------------------------------------
// Lambda structure
// ---------------------------------------------------------------------------

struct Lambda {
  int line = 0;
  bool default_ref_capture = false;    // [&] or [&, x]
  bool default_copy_capture = false;   // [=] or [=, &x]
  bool explicit_ref_capture = false;   // [&x] (incl. [&x = init])
  bool captures_this = false;          // [this]
  bool returns_task = false;           // -> sim::Task<...> / Future
  bool body_has_co = false;            // co_await / co_return / co_yield
  bool IsCoroutine() const { return returns_task || body_has_co; }
};

// True when the `[` at `i` opens a lambda capture list (vs subscript or
// attribute). Heuristic: a subscript follows a value (identifier, `)`, `]`,
// literal); an attribute is `[[`.
bool IsLambdaIntro(const std::vector<Token>& toks, std::size_t i) {
  if (i + 1 < toks.size() && IsPunct(toks[i + 1], "[")) return false;
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  switch (prev.kind) {
    case TokKind::kIdentifier:
      return IsExprKeyword(prev.text);
    case TokKind::kNumber:
    case TokKind::kString:
      return false;
    case TokKind::kPunct:
      return !(prev.text == ")" || prev.text == "]");
  }
  return false;
}

// Parses the lambda whose `[` is at `i`; advances to just past its body so
// nested lambdas are only reported once (the caller recurses via re-scan of
// body tokens — body token range is returned through `body_begin/end`).
bool ParseLambda(const std::vector<Token>& toks, std::size_t i, Lambda* out,
                 std::size_t* body_begin, std::size_t* body_end) {
  out->line = toks[i].line;
  // Capture list.
  std::size_t j = i + 1;
  int depth = 1;
  bool at_item_start = true;  // just after `[` or a top-level `,`
  for (; j < toks.size() && depth > 0; ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "[" || t.text == "(") ++depth;
      if (t.text == "]" || t.text == ")") {
        --depth;
        continue;
      }
    }
    if (depth != 1) continue;
    if (IsPunct(t, ",")) {
      at_item_start = true;
      continue;
    }
    if (at_item_start) {
      if (IsPunct(t, "&")) {
        const bool bare = j + 1 < toks.size() &&
                          (IsPunct(toks[j + 1], ",") ||
                           IsPunct(toks[j + 1], "]"));
        if (bare) {
          out->default_ref_capture = true;
        } else {
          out->explicit_ref_capture = true;
        }
      } else if (IsPunct(t, "=")) {
        const bool bare = j + 1 < toks.size() &&
                          (IsPunct(toks[j + 1], ",") ||
                           IsPunct(toks[j + 1], "]"));
        if (bare) out->default_copy_capture = true;
      } else if (IsId(t, "this")) {
        out->captures_this = true;
      }
      at_item_start = false;
    }
  }
  if (depth > 0) return false;  // unterminated; not a lambda after all

  // Optional parameter list.
  if (j < toks.size() && IsPunct(toks[j], "(")) {
    const std::size_t close = MatchParen(toks, j);
    if (close == kNpos) return false;
    j = close;
  }
  // Specifiers / trailing return type, up to the body `{`.
  for (; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (IsPunct(t, "{")) break;
    if (IsPunct(t, ";") || IsPunct(t, ")") || IsPunct(t, ",") ||
        IsPunct(t, "]") || IsPunct(t, "}")) {
      return false;  // e.g. `[]` used as an empty attribute-like construct
    }
    if (IsId(t, "Task") || IsId(t, "Future")) out->returns_task = true;
  }
  if (j >= toks.size()) return false;
  const std::size_t end = MatchBrace(toks, j);
  if (end == kNpos) return false;
  *body_begin = j + 1;
  *body_end = end - 1;
  for (std::size_t k = *body_begin; k < *body_end; ++k) {
    if (IsCoroKeyword(toks[k])) {
      out->body_has_co = true;
      break;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule documentation (--explain)
// ---------------------------------------------------------------------------

const std::vector<RuleDoc>& RuleDocs() {
  static const std::vector<RuleDoc> kDocs = {
      {"coro-capture-default",
       "no [&]/[=] default captures in coroutine lambdas",
       "A lambda coroutine stores its captures in the closure object, not in "
       "the coroutine frame. If the closure is destroyed before the frame "
       "finishes (it usually is: temporaries die at the end of the full "
       "expression that started the coroutine), every capture dangles after "
       "the first co_await. Default captures make the hazard invisible at "
       "the call site, so they are banned outright in any lambda that "
       "contains co_await/co_return/co_yield or returns sim::Task/"
       "sim::Future.",
       "sim->Spawn([&]() -> sim::Task<void> { co_await sim->Delay(d); }());",
       "pass state as coroutine parameters: "
       "sim->Spawn([](Simulation* s, Duration d) -> sim::Task<void> { "
       "co_await s->Delay(d); }(sim, d));"},
      {"coro-capture-ref",
       "no by-reference or `this` captures in coroutine lambdas",
       "Same lifetime hazard as coro-capture-default, with the reference "
       "spelled out: `[&x]` and `[this]` live in the closure object, which "
       "rarely outlives the first suspension point. Capture by value, or "
       "pass the object as an explicit coroutine parameter (parameters are "
       "copied/moved into the frame and live exactly as long as it does).",
       "auto t = [&cfg]() -> sim::Task<int> { co_return cfg.n; }();",
       "auto t = [](const Config cfg) -> sim::Task<int> { co_return cfg.n; "
       "}(cfg);"},
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
      {"include-hygiene",
       "#pragma once in headers, self-include first, no ../ includes",
       "Headers must open with #pragma once before any code. A src/ .cc "
       "file that has a same-named header must include it first (proves the "
       "header is self-contained). Includes must not path-escape with "
       "\"../\" — spell the project-relative path. Headers must not contain "
       "`using namespace`.",
       "#include \"../common/log.h\"",
       "#include \"common/log.h\""},
      {"coro-ref-escape",
       "no reference escapes into a coroutine frame across a wrapper",
       "A coroutine frame can outlive the caller's scope the moment it "
       "suspends. Passing `&local`, a `[&]` lambda, or forwarding a "
       "reference parameter through a non-coroutine wrapper into a "
       "Task-returning callee stores a dangling pointer in that frame. The "
       "per-file coro-ref-param rule sees only the callee's signature; this "
       "interprocedural rule follows the argument through the call graph. "
       "Pass by value, or co_await the call so the frame dies before the "
       "referent does.",
       "void Kick(Client& c, std::string& p) { StartRename(c, p); }  "
       "// StartRename -> Task RenameLoop(Client&, std::string& path)",
       "void Kick(Client& c, std::string p) { StartRename(c, std::move(p)); "
       "}"},
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

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

namespace {

class FileLint {
 public:
  explicit FileLint(const LexedFile& f) : f_(f) {}

  void Run(std::vector<Finding>* out) {
    Lambdas();
    CoroutineSignatures();
    IncludeHygiene();
    Filter(out);
  }

 private:
  void Add(int line, const char* rule, std::string message) {
    raw_.push_back(Finding{f_.path, line, rule, std::move(message)});
  }

  void Lambdas() {
    const auto& toks = f_.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!IsPunct(toks[i], "[") || !IsLambdaIntro(toks, i)) continue;
      Lambda lam;
      std::size_t body_begin = 0, body_end = 0;
      if (!ParseLambda(toks, i, &lam, &body_begin, &body_end)) continue;
      if (!lam.IsCoroutine()) continue;
      if (lam.default_ref_capture) {
        Add(lam.line, "coro-capture-default",
            "[&] default capture in a coroutine lambda: captures live in "
            "the closure object and dangle after the first suspension");
      }
      if (lam.default_copy_capture) {
        Add(lam.line, "coro-capture-default",
            "[=] default capture in a coroutine lambda: the closure object "
            "(and its copies) dies before the frame; capture nothing and "
            "pass parameters instead");
      }
      if (lam.explicit_ref_capture) {
        Add(lam.line, "coro-capture-ref",
            "by-reference capture in a coroutine lambda: the reference "
            "lives in the closure object, not the frame");
      }
      if (lam.captures_this) {
        Add(lam.line, "coro-capture-ref",
            "`this` capture in a coroutine lambda: the closure object dies "
            "before the frame; pass the object as a parameter");
      }
      // Lambda parameters are deliberately exempt from coro-ref-param:
      // the repo's blessed pattern is an immediately-invoked lambda whose
      // referents are pinned by the caller that drives it (RunTask), and
      // parameters are exactly where the capture rules send state.
    }
  }

  void CoroutineSignatures() {
    const auto& toks = f_.tokens;
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
        Add(ref_line, "coro-ref-param",
            "reference parameter on coroutine function `" +
                toks[name_tok].text +
                "`: the referent must outlive every suspension of the "
                "frame; take it by value (or annotate a provably-safe "
                "out-param)");
      }
    }
  }

  void IncludeHygiene() {
    const bool is_header = IsHeaderPath(f_.path);
    if (is_header) {
      if (!f_.has_pragma_once) {
        Add(1, "include-hygiene", "header is missing #pragma once");
      } else if (f_.first_code_line != 0 &&
                 f_.pragma_once_line > f_.first_code_line) {
        Add(f_.pragma_once_line, "include-hygiene",
            "#pragma once must precede all code in the header");
      }
      const auto& toks = f_.tokens;
      for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (IsId(toks[i], "using") && IsId(toks[i + 1], "namespace")) {
          Add(toks[i].line, "include-hygiene",
              "`using namespace` in a header leaks into every includer");
        }
      }
    }
    for (const auto& inc : f_.includes) {
      if (inc.path.find("../") != std::string::npos) {
        Add(inc.line, "include-hygiene",
            "include path escapes with \"../\"; spell the project-relative "
            "path");
      }
    }
    // Self-include-first for src/ implementation files.
    if (!is_header && EndsWith(f_.path, ".cc") &&
        f_.path.rfind("src/", 0) == 0 && !f_.includes.empty()) {
      std::string self = f_.path.substr(4);  // drop "src/"
      self.replace(self.size() - 3, 3, ".h");
      for (std::size_t k = 0; k < f_.includes.size(); ++k) {
        if (f_.includes[k].path == self && k != 0) {
          Add(f_.includes[k].line, "include-hygiene",
              "self header \"" + self +
                  "\" must be the first include (proves it is "
                  "self-contained)");
        }
      }
    }
  }

  // Applies `// dufs-lint: allow(...)` suppressions: a trailing comment
  // covers its own line; a comment alone on a line covers the next line.
  void Filter(std::vector<Finding>* out) {
    for (auto& finding : raw_) {
      bool suppressed = false;
      for (const auto& sup : f_.suppressions) {
        const int covered = sup.alone ? sup.line + 1 : sup.line;
        if (covered != finding.line) continue;
        for (const auto& rule : sup.rules) {
          if (rule == "all" || rule == finding.rule) {
            suppressed = true;
            break;
          }
        }
        if (suppressed) break;
      }
      if (!suppressed) out->push_back(std::move(finding));
    }
  }

  const LexedFile& f_;
  std::vector<Finding> raw_;
};

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

// ---------------------------------------------------------------------------
// Stage A: per-file analysis
// ---------------------------------------------------------------------------

FileArtifacts AnalyzeFile(std::string path, const std::string& content) {
  FileArtifacts a;
  const LexedFile lexed = Lex(std::move(path), content);
  a.path = lexed.path;
  FileLint(lexed).Run(&a.local);
  a.summary = BuildFileSummary(lexed);
  a.suppressions = lexed.suppressions;
  return a;
}

// ---------------------------------------------------------------------------
// Stage B: whole-tree run
// ---------------------------------------------------------------------------

void Linter::AddFile(std::string path, const std::string& content) {
  files_.push_back(AnalyzeFile(std::move(path), content));
}

std::vector<Finding> Linter::Run() {
  std::vector<Finding> out;
  for (const auto& a : files_) {
    out.insert(out.end(), a.local.begin(), a.local.end());
  }

  SymbolTable sym;
  for (const auto& a : files_) sym.Add(&a.summary);

  std::vector<Finding> flow;
  RunDataflow(sym, &flow);

  std::map<std::string, const std::vector<Suppression>*> sups;
  for (const auto& a : files_) sups[a.path] = &a.suppressions;
  for (auto& finding : flow) {
    const auto it = sups.find(finding.file);
    if (it != sups.end() && IsSuppressed(finding, *it->second)) continue;
    out.push_back(std::move(finding));
  }

  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dufs::lint
