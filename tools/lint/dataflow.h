// Interprocedural dataflow rules over the cross-TU symbol table. This is
// stage B of the analyzer: stage A (per-file lexing, local rules,
// FileSummary extraction) is pure per file; everything here runs over the
// collected summaries.
//
// Rules:
//   coro-ref-escape         — a reference/pointer argument (`&local`, a
//                             caller ref-param forwarded through a
//                             non-coroutine wrapper, or a `[&]` lambda)
//                             escapes into a coroutine frame that outlives
//                             the caller's suspension point.
//   await-holding-ref       — a reference/iterator into a container is used
//                             again after an intervening co_await (warn).
//
// Findings are appended unfiltered; the caller applies per-file
// `// dufs-lint: allow(...)` suppressions afterwards.
#pragma once

#include <vector>

#include "finding.h"
#include "symtab.h"

namespace dufs::lint {

void RunDataflow(const SymbolTable& sym, std::vector<Finding>* out);

}  // namespace dufs::lint
