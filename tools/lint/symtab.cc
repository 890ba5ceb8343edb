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
  // --- function definitions -----------------------------------------------

  void CollectFunctions(FileSummary* out) {
    for (std::size_t i = 1; i + 1 < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdentifier || IsExprKeyword(t.text) ||
          IsControlKeyword(t.text)) {
        continue;
      }
      if (!IsPunct(toks_[i + 1], "(")) continue;

      // Walk back over `ns::C::` qualification to the return-type end.
      std::size_t ret_end = i;
      while (ret_end >= 2 && IsPunct(toks_[ret_end - 1], "::") &&
             toks_[ret_end - 2].kind == TokKind::kIdentifier) {
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

      const std::size_t body_open = FindBody(close);
      if (body_open == kNpos) continue;
      const std::size_t body_end = MatchBrace(toks_, body_open);
      if (body_end == kNpos) continue;
      FunctionSummary fn;
      fn.name = t.text;
      fn.line = t.line;
      AnalyzeBody(body_open + 1, body_end - 1, &fn);
      out->functions.push_back(std::move(fn));
    }
  }

  // From the `)` closing the parameter list to the body `{`. Returns kNpos
  // for a declaration (`;`, `= default;`) and for a shape that cannot be a
  // function (e.g. a comma follows — `int x(5), y(6);`). Handles
  // constructor init lists.
  std::size_t FindBody(std::size_t j) const {
    bool ctor_init = false;
    int guard = 0;
    while (j < toks_.size() && guard++ < 200) {
      const Token& t = toks_[j];
      if (IsPunct(t, ";") || IsPunct(t, "=")) return kNpos;
      if (IsPunct(t, "{")) {
        // In an init list, `b_{y}` braces belong to a member initializer;
        // the body brace follows a `)` or `}`.
        if (ctor_init && !IsPunct(toks_[j - 1], ")") &&
            !IsPunct(toks_[j - 1], "}")) {
          j = MatchBrace(toks_, j);
          if (j == kNpos) return kNpos;
          continue;
        }
        return j;
      }
      if (IsPunct(t, ":")) {
        ctor_init = true;
        ++j;
        continue;
      }
      if (IsPunct(t, "(")) {
        if (!ctor_init) return kNpos;
        j = MatchParen(toks_, j);
        if (j == kNpos) return kNpos;
        continue;
      }
      if (IsPunct(t, ",")) {
        if (!ctor_init) return kNpos;
        ++j;
        continue;
      }
      if (IsPunct(t, ")") || IsPunct(t, "]") || IsPunct(t, "}")) return kNpos;
      if (IsPunct(t, "<")) {
        j = MatchAngle(toks_, j);
        if (j == kNpos) return kNpos;
        continue;
      }
      // Trailing return type / specifiers: identifiers, `->`, `::`, `&`...
      ++j;
    }
    return kNpos;
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
    if (fn->is_coroutine) CollectHeldRefs(b, e, fn);
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

}  // namespace dufs::lint
