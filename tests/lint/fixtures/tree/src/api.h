// Cross-TU lint fixtures: declarations consumed by the .cc fixtures. The
// files in this mini-tree are lexed, never compiled — they exist to pin the
// interprocedural rules' TP/TN/suppression behavior (tests/lint/lint_v2_test.cc
// and the dufs_lint_fixtures ctest load them from disk).
#pragma once

#include <map>
#include <string>

namespace fx {

// Hazard base case for coro-ref-escape: a Task coroutine keeping a ref and
// a pointer parameter alive in its frame across suspension.
sim::Task<int> FetchValue(std::string& out);
sim::Task<void> Pump(std::string* sink, int n);

// Task producer that holder.cc's coroutines await.
sim::Task<void> Flush(int epoch);

class Registry {
 public:
  sim::Task<int> Lookup(const std::string& key);

 private:
  std::map<std::string, int> entries_;
};

}  // namespace fx
