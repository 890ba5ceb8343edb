#include "symtab.h"

#include <utility>

#include "token_util.h"

namespace dufs::lint {

namespace {

bool IsIteratorMethod(const std::string& s) {
  return s == "begin" || s == "cbegin" || s == "rbegin" || s == "find" ||
         s == "lower_bound" || s == "upper_bound" || s == "equal_range";
}

bool IsElementAccessMethod(const std::string& s) {
  return s == "at" || s == "front" || s == "back";
}

// Splits the argument/parameter list `(open..close)` into depth-1 item
// ranges (begin, end) excluding the enclosing parens and separating commas.
std::vector<std::pair<std::size_t, std::size_t>> SplitDepthOne(
    const std::vector<Token>& toks, std::size_t open, std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> items;
  int depth = 0;
  std::size_t begin = open + 1;
  for (std::size_t i = open; i < close; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{" || t.text == "<") {
        // `<` is unreliable (less-than); only treat it as nesting when it
        // closes within the list — otherwise ignore it.
        if (t.text != "<") ++depth;
      }
      if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      if (depth == 1 && t.text == ",") {
        items.emplace_back(begin, i);
        begin = i + 1;
      }
    }
  }
  if (close > 0 && begin < close - 1) items.emplace_back(begin, close - 1);
  if (begin == open + 1 && items.empty() && close - 1 > begin) {
    items.emplace_back(begin, close - 1);
  }
  return items;
}

void ParseParams(const std::vector<Token>& toks, std::size_t open,
                 std::size_t close, std::vector<Param>* out) {
  for (const auto& [b, e] : SplitDepthOne(toks, open, close)) {
    if (b >= e) continue;
    Param p;
    p.line = toks[b].line;
    std::size_t stop = e;  // default values are not part of the type/name
    for (std::size_t i = b; i < e; ++i) {
      if (IsPunct(toks[i], "=")) {
        stop = i;
        break;
      }
    }
    std::vector<std::size_t> idents;
    for (std::size_t i = b; i < stop; ++i) {
      const Token& t = toks[i];
      if (t.kind == TokKind::kIdentifier) {
        if (t.text == "Simulation") p.is_simulation = true;
        if (!IsExprKeyword(t.text)) idents.push_back(i);
        continue;
      }
      if (t.kind != TokKind::kPunct || i == b) continue;
      const Token& prev = toks[i - 1];
      const bool after_type =
          (prev.kind == TokKind::kIdentifier && !IsExprKeyword(prev.text)) ||
          IsPunct(prev, ">") || IsPunct(prev, ">>") || IsPunct(prev, "*");
      if (t.text == "&" && after_type) p.is_ref = true;
      if (t.text == "*" && after_type) p.is_ptr = true;
    }
    // With two or more identifiers the last one is the parameter name;
    // a single identifier is an unnamed `(T)` parameter.
    if (idents.size() >= 2) p.name = toks[idents.back()].text;
    out->push_back(std::move(p));
  }
}

class Extractor {
 public:
  explicit Extractor(const LexedFile& f) : f_(f), toks_(f.tokens) {}

  FileSummary Run() {
    FileSummary out;
    out.path = f_.path;
    CollectFunctions(&out);
    return out;
  }

 private:
  // --- function declarations/definitions ---------------------------------

  void CollectFunctions(FileSummary* out) {
    for (std::size_t i = 1; i + 1 < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdentifier || IsExprKeyword(t.text) ||
          IsControlKeyword(t.text)) {
        continue;
      }
      if (!IsPunct(toks_[i + 1], "(")) continue;

      // Walk back over `ns::C::` qualification to the return-type end.
      std::string qualifier;
      std::size_t ret_end = i;
      while (ret_end >= 2 && IsPunct(toks_[ret_end - 1], "::") &&
             toks_[ret_end - 2].kind == TokKind::kIdentifier) {
        if (qualifier.empty()) qualifier = toks_[ret_end - 2].text;
        ret_end -= 2;
      }
      if (ret_end == 0) continue;
      const Token& before = toks_[ret_end - 1];
      const bool type_before =
          (before.kind == TokKind::kIdentifier &&
           !IsExprKeyword(before.text) && !IsControlKeyword(before.text)) ||
          IsPunct(before, ">") || IsPunct(before, ">>") ||
          IsPunct(before, "*") || IsPunct(before, "&");
      if (!type_before) continue;

      const std::size_t close = MatchParen(toks_, i + 1);
      if (close == kNpos) continue;

      FunctionSummary fn;
      fn.name = t.text;
      fn.qualifier = std::move(qualifier);
      fn.line = t.line;
      ScanReturnType(ret_end, &fn);
      ParseParams(toks_, i + 1, close, &fn.params);

      std::size_t body_open = kNpos;
      if (!ScanSpecifiers(close, &fn, &body_open)) continue;
      if (body_open != kNpos) {
        const std::size_t body_end = MatchBrace(toks_, body_open);
        if (body_end == kNpos) continue;
        fn.has_body = true;
        AnalyzeBody(body_open + 1, body_end - 1, &fn);
      }
      out->functions.push_back(std::move(fn));
    }
  }

  void ScanReturnType(std::size_t ret_end, FunctionSummary* fn) {
    std::size_t lo = ret_end > 50 ? ret_end - 50 : 0;
    // Stop at the previous statement/definition boundary.
    for (std::size_t i = ret_end; i-- > lo;) {
      const Token& t = toks_[i];
      if (t.kind == TokKind::kPunct &&
          (t.text == ";" || t.text == "{" || t.text == "}" || t.text == ":" ||
           t.text == "(" || t.text == ")" || t.text == ",")) {
        lo = i + 1;
        break;
      }
    }
    for (std::size_t i = lo; i < ret_end; ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdentifier) continue;
      if ((t.text == "Task" || t.text == "Future") && i + 1 < ret_end &&
          IsPunct(toks_[i + 1], "<")) {
        fn->returns_task = true;
      }
    }
  }

  // From the `)` closing the parameter list to the body `{` or the decl
  // `;`. Returns false when the shape cannot be a function (e.g. a comma
  // follows — `int x(5), y(6);`). Handles constructor init lists.
  bool ScanSpecifiers(std::size_t j, FunctionSummary* fn,
                      std::size_t* body_open) {
    bool ctor_init = false;
    int guard = 0;
    while (j < toks_.size() && guard++ < 200) {
      const Token& t = toks_[j];
      if (IsPunct(t, ";")) return true;  // declaration without body
      if (IsPunct(t, "{")) {
        // In an init list, `b_{y}` braces belong to a member initializer;
        // the body brace follows a `)` or `}`.
        if (ctor_init && j > 0 && !IsPunct(toks_[j - 1], ")") &&
            !IsPunct(toks_[j - 1], "}")) {
          const std::size_t end = MatchBrace(toks_, j);
          if (end == kNpos) return false;
          j = end;
          continue;
        }
        *body_open = j;
        return true;
      }
      if (IsPunct(t, ":")) {
        ctor_init = true;
        ++j;
        continue;
      }
      if (IsPunct(t, "(")) {
        if (!ctor_init) return false;
        const std::size_t end = MatchParen(toks_, j);
        if (end == kNpos) return false;
        j = end;
        continue;
      }
      if (IsPunct(t, ",")) {
        if (!ctor_init) return false;
        ++j;
        continue;
      }
      if (IsPunct(t, "=")) {
        // `= 0;` / `= default;` / `= delete;` — a bodiless declaration.
        while (j < toks_.size() && !IsPunct(toks_[j], ";")) ++j;
        return true;
      }
      if (IsPunct(t, ")") || IsPunct(t, "]") || IsPunct(t, "}")) return false;
      if (IsPunct(t, "<")) {
        const std::size_t end = MatchAngle(toks_, j);
        if (end == kNpos) return false;
        j = end;
        continue;
      }
      // Trailing return type / specifiers: identifiers, `->`, `::`, `&`...
      if ((t.text == "Task" || t.text == "Future") && j + 1 < toks_.size() &&
          IsPunct(toks_[j + 1], "<")) {
        fn->returns_task = true;
      }
      ++j;
    }
    return false;
  }

  // --- body facts ---------------------------------------------------------

  // Token ranges of nested lambda bodies in [b, e): a co_await inside a
  // lambda suspends the lambda's own frame, not the enclosing function's,
  // so lambda bodies don't make the enclosing function a coroutine.
  std::vector<std::pair<std::size_t, std::size_t>> LambdaBodies(
      std::size_t b, std::size_t e) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t k = b; k < e; ++k) {
      if (!IsPunct(toks_[k], "[")) continue;
      int depth = 0;
      std::size_t close = kNpos;
      for (std::size_t i = k; i < e; ++i) {
        if (IsPunct(toks_[i], "[")) ++depth;
        if (IsPunct(toks_[i], "]") && --depth == 0) {
          close = i;
          break;
        }
      }
      if (close == kNpos) continue;
      std::size_t j = close + 1;
      if (j < e && IsPunct(toks_[j], "(")) {
        const std::size_t pe = MatchParen(toks_, j);
        if (pe == kNpos || pe > e) continue;
        j = pe;
      }
      // Skip specifiers / a trailing return type (a handful of tokens).
      std::size_t guard = 0;
      while (j < e && !IsPunct(toks_[j], "{") && guard++ < 12) {
        if (IsPunct(toks_[j], ";") || IsPunct(toks_[j], ")") ||
            IsPunct(toks_[j], ",") || IsPunct(toks_[j], "]")) {
          j = e;  // subscript expression, not a lambda
        } else {
          ++j;
        }
      }
      if (j >= e || !IsPunct(toks_[j], "{")) continue;
      const std::size_t end = MatchBrace(toks_, j);
      if (end == kNpos || end > e) continue;
      out.emplace_back(j, end);
      k = j;  // nested lambdas fall inside this range anyway
    }
    return out;
  }

  void AnalyzeBody(std::size_t b, std::size_t e, FunctionSummary* fn) {
    const auto lambdas = LambdaBodies(b, e);
    auto in_lambda = [&lambdas](std::size_t k) {
      for (const auto& [lb, le] : lambdas) {
        if (k > lb && k < le) return true;
      }
      return false;
    };
    for (std::size_t k = b; k < e; ++k) {
      if (IsCoroKeyword(toks_[k]) && !in_lambda(k)) {
        fn->is_coroutine = true;
        break;
      }
    }
    CollectCalls(b, e, fn);
    if (fn->is_coroutine) CollectHeldRefs(b, e, fn);
  }

  void CollectCalls(std::size_t b, std::size_t e, FunctionSummary* fn) {
    for (std::size_t k = b; k + 1 < e; ++k) {
      const Token& t = toks_[k];
      if (t.kind != TokKind::kIdentifier || IsControlKeyword(t.text) ||
          IsExprKeyword(t.text)) {
        continue;
      }
      if (!IsPunct(toks_[k + 1], "(")) continue;
      if (k > b) {
        const Token& prev = toks_[k - 1];
        if ((prev.kind == TokKind::kIdentifier &&
             !IsExprKeyword(prev.text)) ||
            IsPunct(prev, ">")) {
          continue;  // `Type name(...)` declaration
        }
      }
      const std::size_t close = MatchParen(toks_, k + 1);
      if (close == kNpos) continue;

      CallSite call;
      call.callee = t.text;
      call.line = t.line;
      // Walk back over the `a.b->c::` chain to see what drives the call.
      std::size_t start = k;
      while (start >= b + 2 &&
             (IsPunct(toks_[start - 1], ".") ||
              IsPunct(toks_[start - 1], "->") ||
              IsPunct(toks_[start - 1], "::")) &&
             toks_[start - 2].kind == TokKind::kIdentifier) {
        start -= 2;
      }
      if (start > b) {
        call.awaited = IsId(toks_[start - 1], "co_await");
        call.returned = IsId(toks_[start - 1], "return");
      }
      for (const auto& [ab, ae] : SplitDepthOne(toks_, k + 1, close)) {
        std::string bare;
        if (ae == ab + 1 && toks_[ab].kind == TokKind::kIdentifier) {
          bare = toks_[ab].text;
        } else if (ae == ab + 2 && IsPunct(toks_[ab], "&") &&
                   toks_[ab + 1].kind == TokKind::kIdentifier) {
          bare = "&" + toks_[ab + 1].text;
        } else if (ae > ab + 2 && IsPunct(toks_[ab], "[") &&
                   IsPunct(toks_[ab + 1], "&") && IsPunct(toks_[ab + 2], "]")) {
          bare = "[&]";  // by-reference-capturing lambda argument
        }
        call.bare_args.push_back(std::move(bare));
      }
      fn->calls.push_back(std::move(call));
    }
  }

  void CollectHeldRefs(std::size_t b, std::size_t e, FunctionSummary* fn) {
    std::vector<std::size_t> awaits;
    for (std::size_t k = b; k < e; ++k) {
      if (IsId(toks_[k], "co_await")) awaits.push_back(k);
    }
    if (awaits.empty()) return;

    for (std::size_t k = b; k + 3 < e; ++k) {
      HeldRef ref;
      std::size_t name_tok = kNpos;
      bool by_ref = false;
      if (IsId(toks_[k], "auto")) {
        std::size_t m = k + 1;
        if (m < e && IsPunct(toks_[m], "&")) {
          by_ref = true;
          ++m;
        }
        if (m + 1 >= e || toks_[m].kind != TokKind::kIdentifier ||
            !IsPunct(toks_[m + 1], "=")) {
          continue;
        }
        name_tok = m;
      } else if (toks_[k].kind == TokKind::kIdentifier &&
                 !IsExprKeyword(toks_[k].text) && IsPunct(toks_[k + 1], "&") &&
                 toks_[k + 2].kind == TokKind::kIdentifier &&
                 IsPunct(toks_[k + 3], "=")) {
        by_ref = true;
        name_tok = k + 2;
      } else {
        continue;
      }

      // RHS of the initializer, up to the statement's `;`.
      std::size_t semi = name_tok + 2;
      int depth = 0;
      for (; semi < e; ++semi) {
        const Token& t = toks_[semi];
        if (t.kind != TokKind::kPunct) continue;
        if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
        if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
        if (depth == 0 && t.text == ";") break;
      }
      if (semi >= e) continue;

      bool rhs_has_await = false;
      bool iterator = false, element_ref = false;
      std::string container;
      for (std::size_t i = name_tok + 2; i < semi; ++i) {
        const Token& t = toks_[i];
        if (IsId(t, "co_await")) rhs_has_await = true;
        if ((IsPunct(t, ".") || IsPunct(t, "->")) && i + 2 < semi &&
            toks_[i + 1].kind == TokKind::kIdentifier &&
            IsPunct(toks_[i + 2], "(") && i > name_tok + 2 &&
            toks_[i - 1].kind == TokKind::kIdentifier) {
          if (IsIteratorMethod(toks_[i + 1].text)) {
            iterator = true;
            container = toks_[i - 1].text;
          } else if (IsElementAccessMethod(toks_[i + 1].text)) {
            element_ref = true;
            container = toks_[i - 1].text;
          }
        }
        if (IsPunct(t, "[") && i > name_tok + 2 &&
            toks_[i - 1].kind == TokKind::kIdentifier) {
          element_ref = true;
          if (container.empty()) container = toks_[i - 1].text;
        }
      }
      if (rhs_has_await) continue;  // the awaited value is a fresh copy
      if (!iterator && !(by_ref && element_ref)) continue;

      ref.name = toks_[name_tok].text;
      ref.line = toks_[name_tok].line;
      ref.iterator = iterator;
      ref.container = std::move(container);

      // First use in a LATER statement than an intervening co_await: a use
      // inside the awaiting statement itself (call arguments, the awaited
      // expression) is evaluated before the frame suspends and is safe, so
      // a `;` must separate the await from the use. Rebinding the name
      // (`it = ...`, or a fresh `auto it = ...`) ends the tracked lifetime.
      std::vector<std::size_t> semis;
      for (std::size_t s = semi; s < e; ++s) {
        if (IsPunct(toks_[s], ";")) semis.push_back(s);
      }
      for (std::size_t u = semi + 1; u < e && ref.await_line == 0; ++u) {
        if (toks_[u].kind != TokKind::kIdentifier ||
            toks_[u].text != ref.name) {
          continue;
        }
        if (u + 1 < e && IsPunct(toks_[u + 1], "=")) break;  // rebound
        for (std::size_t a : awaits) {
          if (!(a > semi && a < u)) continue;
          bool stmt_boundary = false;
          for (std::size_t s : semis) {
            if (s > a && s < u) {
              stmt_boundary = true;
              break;
            }
          }
          if (!stmt_boundary) continue;
          ref.await_line = toks_[a].line;
          ref.use_line = toks_[u].line;
          break;
        }
      }
      if (ref.await_line != 0) fn->held_refs.push_back(std::move(ref));
    }
  }

  const LexedFile& f_;
  const std::vector<Token>& toks_;
};

}  // namespace

FileSummary BuildFileSummary(const LexedFile& f) { return Extractor(f).Run(); }

// ---------------------------------------------------------------------------
// SymbolTable
// ---------------------------------------------------------------------------

void SymbolTable::Add(const FileSummary* file) {
  files_.push_back(file);
  for (const FunctionSummary& fn : file->functions) {
    by_name_[fn.name].push_back(&fn);
  }
}

const std::vector<const FunctionSummary*>& SymbolTable::Lookup(
    const std::string& name) const {
  static const std::vector<const FunctionSummary*> kEmpty;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

}  // namespace dufs::lint
