// Per-file fact extraction for the cross-TU analysis passes.
//
// BuildFileSummary runs a lightweight declaration parser over a lexed file
// and produces a FileSummary: every function declaration/definition it can
// recognize (name, qualifier, return-type class, parameters, coroutine-ness)
// together with the body facts the dataflow rules consume (call sites with
// bare-identifier arguments, references/iterators held across co_await).
//
// The summary is deliberately token-derived and heuristic — no headers are
// expanded, no templates instantiated — but it is self-contained per file:
// a file's summary depends only on its own bytes; every cross-file
// judgement happens later, in SymbolTable/dataflow over the collected
// summaries.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lexer.h"

namespace dufs::lint {

struct Param {
  std::string name;
  bool is_ref = false;
  bool is_ptr = false;
  // `Simulation&` parameters are exempt from the coroutine-lifetime rules:
  // no frame outlives the Simulation that drives it (see rules.cc).
  bool is_simulation = false;
  int line = 0;
};

// One call expression inside a function body. `bare_args` holds, per
// depth-1 argument, the identifier name when the argument is a lone
// identifier (or "&name" for a lone address-of), else "".
struct CallSite {
  std::string callee;  // unqualified name immediately before the `(`
  int line = 0;
  bool awaited = false;   // `co_await [chain] callee(...)`
  bool returned = false;  // `return [chain] callee(...)`
  std::vector<std::string> bare_args;
};

// A reference or iterator into a container, declared in a coroutine body and
// used again after an intervening co_await. The extraction already resolves
// the temporal question (is there a use after a suspension point?); the
// dataflow pass only decides whether to report it.
struct HeldRef {
  std::string name;
  int line = 0;            // declaration line
  bool iterator = false;   // `auto it = c.find(...)` vs `auto& r = c[...]`
  std::string container;   // "" when not recognizable
  int await_line = 0;      // first co_await between the decl and a later use
  int use_line = 0;        // first use after that co_await
};

struct FunctionSummary {
  std::string name;       // unqualified declarator name
  std::string qualifier;  // "C" when declared as C::name, else ""
  int line = 0;
  bool returns_task = false;  // sim::Task<...> / sim::Future<...>
  bool is_coroutine = false;  // body contains co_await/co_return/co_yield
  bool has_body = false;
  std::vector<Param> params;
  std::vector<CallSite> calls;     // body only
  std::vector<HeldRef> held_refs;  // body only, coroutines only
};

struct FileSummary {
  std::string path;
  std::vector<FunctionSummary> functions;
};

FileSummary BuildFileSummary(const LexedFile& f);

// Cross-TU symbol table: every FileSummary in the tree, indexed by
// unqualified function name.
class SymbolTable {
 public:
  void Add(const FileSummary* file);

  // Functions declared with this unqualified name, across all files.
  const std::vector<const FunctionSummary*>& Lookup(
      const std::string& name) const;

  const std::vector<const FileSummary*>& files() const { return files_; }

 private:
  std::vector<const FileSummary*> files_;
  std::map<std::string, std::vector<const FunctionSummary*>> by_name_;
};

}  // namespace dufs::lint
