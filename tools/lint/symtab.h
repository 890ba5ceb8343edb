// Per-file fact extraction for the cross-TU analysis passes.
//
// BuildFileSummary runs a lightweight declaration parser over a lexed file
// and produces a FileSummary: every function declaration/definition it can
// recognize (name, qualifier, return-type class, parameters, coroutine-ness)
// together with the body facts the dataflow rules consume (call sites with
// bare-identifier arguments, container iterations, references/iterators held
// across co_await) and the file-level set of entities of unordered type.
//
// The summary is deliberately token-derived and heuristic — no headers are
// expanded, no templates instantiated — but it is self-contained per file:
// a file's summary depends only on its own bytes; every cross-file
// judgement happens later, in SymbolTable/CallGraph/dataflow over the
// collected summaries.
#pragma once

#include <cstddef>
#include <map>
#include <set>
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

// One loop that iterates a named container (`for (x : c)` or
// `for (auto it = c.begin(); ...)`). `body_calls` lists the callee names
// invoked inside the loop body, for sink-feeding detection.
struct Iteration {
  std::string container;  // last identifier of the iterated entity
  int line = 0;
  bool range_for = false;
  std::vector<std::string> body_calls;
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
  std::vector<CallSite> calls;        // body only
  std::vector<Iteration> iterations;  // body only
  std::vector<HeldRef> held_refs;     // body only, coroutines only
};

struct FileSummary {
  std::string path;
  std::vector<FunctionSummary> functions;
  // Entities (members, locals, globals) declared with an unordered type
  // (std::unordered_map/set/multimap/multiset, directly or via a `using`
  // alias declared in the same file).
  std::vector<std::string> unordered_names;
};

FileSummary BuildFileSummary(const LexedFile& f);

// Cross-TU symbol table: every FileSummary in the tree, indexed by
// unqualified function name, plus the union of unordered-entity names.
class SymbolTable {
 public:
  void Add(const FileSummary* file);

  // Functions declared with this unqualified name, across all files.
  const std::vector<const FunctionSummary*>& Lookup(
      const std::string& name) const;

  bool IsUnorderedEntity(const std::string& name) const {
    return unordered_.count(name) > 0;
  }

  const std::vector<const FileSummary*>& files() const { return files_; }

 private:
  std::vector<const FileSummary*> files_;
  std::map<std::string, std::vector<const FunctionSummary*>> by_name_;
  std::set<std::string> unordered_;
};

}  // namespace dufs::lint
