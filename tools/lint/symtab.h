// Per-function facts for the await-holding-ref rule.
//
// BuildFileSummary runs a lightweight declaration parser over a lexed file
// and records every function definition it can recognize: its name, whether
// its body is a coroutine, and the container references/iterators the body
// holds across a co_await. The summary is token-derived and heuristic — no
// headers are expanded, no templates instantiated — and depends only on the
// file's own bytes.
#pragma once

#include <string>
#include <vector>

#include "lexer.h"

namespace dufs::lint {

// A reference or iterator into a container, declared in a coroutine body and
// used again after an intervening co_await. The extraction already resolves
// the temporal question (is there a use after a suspension point?); the rule
// only decides whether to report it.
struct HeldRef {
  std::string name;
  int line = 0;            // declaration line
  bool iterator = false;   // `auto it = c.find(...)` vs `auto& r = c[...]`
  std::string container;   // "" when not recognizable
  int await_line = 0;      // first co_await between the decl and a later use
  int use_line = 0;        // first use after that co_await
};

struct FunctionSummary {
  std::string name;  // unqualified declarator name
  int line = 0;
  bool is_coroutine = false;  // body contains co_await/co_return/co_yield
  std::vector<HeldRef> held_refs;  // coroutines only
};

struct FileSummary {
  std::string path;
  std::vector<FunctionSummary> functions;  // definitions, in file order
};

FileSummary BuildFileSummary(const LexedFile& f);

}  // namespace dufs::lint
