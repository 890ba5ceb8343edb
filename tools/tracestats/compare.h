// --compare: the one regression gate, over two BENCH_*.json baselines (the
// perf-compare gate) or two folded CPU profiles (the cpu-profile gate).
// Both kinds become rows of one CompareResult and share one text, JSON and
// markdown renderer; only the verdict rule differs:
//   - a baseline metric regresses when it moves more than `tolerance`
//     (relative) against its "better" direction, or is missing from the
//     new side; a metric only in the new side informs and never fails;
//   - a profile frame's value is its self-share. "lower" frames (engine.*,
//     unattributed) regress when they grow by more than `tolerance` share
//     points, "stable" frames when they drift that far either way; frames
//     under kMinShare on both sides are noise and never fail.
#pragma once

#include <string>
#include <vector>

#include "json.h"
#include "profile.h"

namespace dufs::tracestats {

inline constexpr double kDefaultTolerance = 0.05;
inline constexpr double kMinShare = 0.01;

struct CompareRow {
  // Which baselines hold the metric. Profile rows are always kBoth: a frame
  // absent from one profile has a self-share of 0 there.
  enum class Mark { kBoth, kMissing, kNew };

  std::string name;       // metric key or frame name
  std::string direction;  // "higher", "lower" or "stable"
  double old_value = 0.0;  // metric value, or self-share in 0..1
  double new_value = 0.0;
  double delta = 0.0;  // baselines: relative change; profiles: share points
  bool regressed = false;
  Mark mark = Mark::kBoth;
};

struct CompareResult {
  bool profile = false;  // rows are profile frames, not baseline metrics
  double tolerance = kDefaultTolerance;
  int regressions = 0;
  // Baselines: by key, new metrics last. Profiles: by |delta| descending,
  // then name.
  std::vector<CompareRow> rows;

  bool ok() const { return regressions == 0; }
};

// False when either baseline has no "metrics" object, or a metric has no
// numeric "value" or a "better" other than "higher" or "lower".
bool CompareBaselines(const JsonValue& old_base, const JsonValue& new_base,
                      double tol, CompareResult* out, std::string* error);
void CompareProfiles(const Aggregate& old_a, const Aggregate& new_a,
                     double tol, CompareResult* out);

// Compares two files' contents. A text whose first non-blank byte is '{'
// is a baseline, any other a folded profile. False on a parse error or
// when one text is a baseline and the other a profile.
bool Compare(const std::string& old_text, const std::string& new_text,
             double tol, CompareResult* out, std::string* error);

std::string CompareToText(const CompareResult& r);
std::string CompareToJson(const CompareResult& r);
// GitHub-flavored markdown (verdict header + the text report); tracestats
// appends it to $GITHUB_STEP_SUMMARY so the verdict shows on the run page.
std::string CompareToMarkdown(const CompareResult& r);

}  // namespace dufs::tracestats
