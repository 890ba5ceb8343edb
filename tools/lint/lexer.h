// Lightweight C++ lexer for dufs_lint. Not a full front end — just enough
// token structure (identifiers, literals, multi-char punctuators, comment and
// preprocessor tracking) for the repo-specific rules in rules.h. No libclang
// dependency by design: the linter must build everywhere the tree builds.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dufs::lint {

enum class TokKind {
  kIdentifier,  // foo, co_await, int (keywords are identifiers to the lexer)
  kNumber,      // 0x1f, 1.5e3, 42ull
  kString,      // "...", R"(...)", 'c' (char literals included)
  kPunct,       // ::, ->, &&, >>, single chars
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
};

// One `// dufs-lint: allow(rule-a, rule-b)` suppression comment.
struct Suppression {
  std::vector<std::string> rules;
  int line = 0;        // line the comment appears on
  bool alone = false;  // comment is the only thing on its line
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
};

// Tokenizes `content`. Preprocessor directives are skipped whole (with
// continuation-line handling); comments surface only through
// `suppressions`.
LexedFile Lex(std::string path, const std::string& content);

}  // namespace dufs::lint
