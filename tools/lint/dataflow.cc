#include "dataflow.h"

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace dufs::lint {

namespace {

bool EndsWithUnderscore(const std::string& s) {
  return !s.empty() && s.back() == '_';
}

// A definition whose frame can outlive the caller's scope once it
// suspends.
bool CoroLike(const FunctionSummary& fn) {
  return fn.is_coroutine || fn.returns_task;
}

// Unqualified-name resolution with a same-file-first policy: when the
// caller's own file defines `name`, those definitions shadow same-named
// functions elsewhere in the tree (the common collision: several benches
// each defining their own static `Measure` with different signatures).
// Only names the file does not define fall back to the whole-tree table.
class Resolver {
 public:
  explicit Resolver(const SymbolTable& sym) : sym_(sym) {
    for (const FileSummary* file : sym.files()) {
      auto& names = local_[file];
      for (const FunctionSummary& fn : file->functions) {
        names[fn.name].push_back(&fn);
      }
    }
  }

  const std::vector<const FunctionSummary*>& Resolve(
      const FileSummary* file, const std::string& name) const {
    const auto fit = local_.find(file);
    if (fit != local_.end()) {
      const auto nit = fit->second.find(name);
      if (nit != fit->second.end()) return nit->second;
    }
    return sym_.Lookup(name);
  }

 private:
  const SymbolTable& sym_;
  std::map<const FileSummary*,
           std::map<std::string, std::vector<const FunctionSummary*>>>
      local_;
};

// ---------------------------------------------------------------------------
// coro-ref-escape
// ---------------------------------------------------------------------------

// hazard[fn] = parameter positions that end up stored in a coroutine
// frame. Base case: every non-Simulation ref/ptr parameter of a coroutine.
// Propagation: a non-coroutine wrapper that forwards its own ref/ptr
// parameter into a hazardous position (without awaiting the call) makes
// that parameter hazardous too. Keyed per definition (not per name) so a
// hazardous `Measure` in one bench does not taint every other `Measure`.
std::map<const FunctionSummary*, std::set<std::size_t>> HazardParams(
    const SymbolTable& sym, const Resolver& res) {
  std::map<const FunctionSummary*, std::set<std::size_t>> hazard;
  for (const FileSummary* file : sym.files()) {
    for (const FunctionSummary& fn : file->functions) {
      if (!CoroLike(fn)) continue;
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        const Param& p = fn.params[i];
        if ((p.is_ref || p.is_ptr) && !p.is_simulation) {
          hazard[&fn].insert(i);
        }
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FileSummary* file : sym.files()) {
      for (const FunctionSummary& fn : file->functions) {
        if (!fn.has_body || CoroLike(fn)) continue;
        for (const CallSite& c : fn.calls) {
          if (c.awaited) continue;
          for (const FunctionSummary* target : res.Resolve(file, c.callee)) {
            const auto hit = hazard.find(target);
            if (hit == hazard.end()) continue;
            for (std::size_t j = 0; j < c.bare_args.size(); ++j) {
              if (hit->second.count(j) == 0) continue;
              const std::string& arg = c.bare_args[j];
              if (arg.empty() || arg[0] == '&' || arg == "[&]") continue;
              for (std::size_t i = 0; i < fn.params.size(); ++i) {
                const Param& p = fn.params[i];
                if (p.name != arg || !(p.is_ref || p.is_ptr) ||
                    p.is_simulation) {
                  continue;
                }
                if (hazard[&fn].insert(i).second) changed = true;
              }
            }
          }
        }
      }
    }
  }
  return hazard;
}

void CoroRefEscape(const SymbolTable& sym, const Resolver& res,
                   std::vector<Finding>* out) {
  const auto hazard = HazardParams(sym, res);
  for (const FileSummary* file : sym.files()) {
    for (const FunctionSummary& fn : file->functions) {
      for (const CallSite& c : fn.calls) {
        if (c.awaited || c.returned) continue;
        bool callee_coro = false;
        std::set<std::size_t> pos;  // union over the resolved definitions
        for (const FunctionSummary* t : res.Resolve(file, c.callee)) {
          if (CoroLike(*t)) callee_coro = true;
          const auto hit = hazard.find(t);
          if (hit != hazard.end()) {
            pos.insert(hit->second.begin(), hit->second.end());
          }
        }
        if (!callee_coro && pos.empty()) continue;
        for (std::size_t j = 0; j < c.bare_args.size(); ++j) {
          const std::string& arg = c.bare_args[j];
          if (arg.empty()) continue;
          const bool pos_hazard = pos.count(j) > 0;
          if (arg == "[&]") {
            if (callee_coro || !pos.empty()) {
              out->push_back(Finding{
                  file->path, c.line, "coro-ref-escape",
                  "`[&]` lambda passed into coroutine `" + c.callee +
                      "`: by-reference captures dangle once the frame "
                      "suspends past the caller's scope; capture by value "
                      "or co_await the call"});
            }
            continue;
          }
          if (!pos_hazard) continue;
          if (arg[0] == '&') {
            const std::string local = arg.substr(1);
            if (EndsWithUnderscore(local)) continue;  // member: object-lived
            out->push_back(Finding{
                file->path, c.line, "coro-ref-escape",
                "address of `" + local + "` escapes into the frame of `" +
                    c.callee +
                    "`, which suspends and can outlive the caller's scope; "
                    "pass by value or co_await the call"});
            continue;
          }
          // Plain identifier forwarded into a hazardous position. Only the
          // wrapper (indirect) case is reported here: direct calls into a
          // coroutine with a ref param are the callee declaration's problem
          // and already flagged by coro-ref-param.
          if (callee_coro) continue;
          if (EndsWithUnderscore(arg)) continue;  // member: object-lived
          out->push_back(Finding{
              file->path, c.line, "coro-ref-escape",
              "`" + arg + "` is forwarded by reference through `" + c.callee +
                  "` into a coroutine frame that outlives this call; pass "
                  "by value or await the chain"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// await-holding-ref
// ---------------------------------------------------------------------------

void AwaitHoldingRef(const SymbolTable& sym, std::vector<Finding>* out) {
  for (const FileSummary* file : sym.files()) {
    for (const FunctionSummary& fn : file->functions) {
      for (const HeldRef& r : fn.held_refs) {
        const std::string what =
            r.iterator ? "iterator" : "reference";
        const std::string where =
            r.container.empty() ? "a container"
                                : "`" + r.container + "`";
        out->push_back(Finding{
            file->path, r.use_line, "await-holding-ref",
            "`" + r.name + "` (" + what + " into " + where +
                ", obtained on line " + std::to_string(r.line) +
                ") is used after the co_await on line " +
                std::to_string(r.await_line) +
                "; the container can mutate while suspended — re-acquire "
                "it after resuming"});
      }
    }
  }
}

}  // namespace

void RunDataflow(const SymbolTable& sym, std::vector<Finding>* out) {
  const Resolver res(sym);
  CoroRefEscape(sym, res, out);
  AwaitHoldingRef(sym, out);
}

}  // namespace dufs::lint
