// tracestats — offline analyzer for the repo's observability exports and
// its one regression gate (kUsage lists the flags; DESIGN.md §9, §14.5):
//   --trace: per-op-class latency decomposition of a --trace export, its 1%
//     cross-check against a --metrics-json export's op histograms (--check
//     exits 1 past it) and the slowest ops' critical paths;
//   --folded: a --profile export's top frames by self and total samples;
//   --compare OLD NEW: two BENCH_*.json baselines or two folded profiles,
//     told apart by their contents (compare.h); exits 1 on a regression and
//     appends a markdown verdict to $GITHUB_STEP_SUMMARY when that is set;
//   --explain-dump: attributes an anomaly dump's mean-latency growth per
//     category; --expect=fsync:0.5 exits 1 unless fsync explains half.
// Numeric flags must be wholly numbers ("--tolerance=5%" is an error), the
// tolerance lies in [0, 1) and --top=N (N >= 0) prints at most N rows in
// both the --trace and the --folded reports. Exit codes: 0 ok, 1 check, regression or
// expectation failure, 2 usage or input error.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analyze.h"
#include "compare.h"
#include "json.h"
#include "profile.h"

namespace {

namespace ts = dufs::tracestats;

constexpr char kUsage[] =
    "usage: tracestats --trace=PATH [--metrics=PATH] [--top=N] [--check]\n"
    "                  [--json] [--out=PATH]\n"
    "       tracestats --folded=PATH [--top=N] [--json] [--out=PATH]\n"
    "       tracestats --compare OLD NEW [--tolerance=0.05] [--json]\n"
    "                  [--out=PATH]\n"
    "       tracestats --explain-dump=DUMP.json [--window=NS]\n"
    "                  [--expect=CATEGORY:SHARE] [--json] [--out=PATH]\n";

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "tracestats: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

int InputError(const std::string& message) {
  std::fprintf(stderr, "tracestats: %s\n", message.c_str());
  return 2;
}

// The whole of `v` must be a number in [lo, hi), and a whole number when
// `integer`: "5%" is not 5.
double NumberFlag(const std::string& arg, const char* v, double lo,
                  double hi, bool integer = false) {
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno != 0 || !(d >= lo && d < hi) ||
      (integer && d != std::trunc(d))) {
    UsageError("bad value: " + arg);
  }
  return d;
}

bool LoadText(const std::string& path, std::string* text) {
  std::string error;
  if (ts::ReadFile(path, text, &error)) return true;
  InputError(error);
  return false;
}

bool LoadJson(const std::string& path, ts::JsonValue* out) {
  std::string text, error;
  if (!LoadText(path, &text)) return false;
  if (ts::ParseJson(text, out, &error)) return true;
  InputError(path + ": " + error);
  return false;
}

bool WriteFile(const char* path, const char* mode, const std::string& text) {
  std::FILE* f = std::fopen(path, mode);
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

bool WriteOutput(const std::string& path, const std::string& content) {
  if (path.empty()) {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return true;
  }
  if (WriteFile(path.c_str(), "w", content)) return true;
  std::fprintf(stderr, "tracestats: cannot write %s\n", path.c_str());
  return false;
}

// CI visibility: surface the gate verdict on the workflow run page.
void AppendStepSummary(const std::string& markdown) {
  const char* path = std::getenv("GITHUB_STEP_SUMMARY");
  if (path != nullptr && path[0] != '\0') {
    WriteFile(path, "a", markdown + "\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, metrics_path, out_path, dump_path, folded_path;
  std::string expect;
  std::vector<std::string> paths;
  bool compare_mode = false;
  bool json_out = false;
  bool check = false;
  int top_k = 10;
  double tolerance = ts::kDefaultTolerance;
  long long window_ns = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--trace=")) {
      trace_path = v;
    } else if (const char* v2 = value("--metrics=")) {
      metrics_path = v2;
    } else if (const char* v3 = value("--out=")) {
      out_path = v3;
    } else if (const char* v4 = value("--top=")) {
      top_k = static_cast<int>(NumberFlag(arg, v4, 0, INT_MAX, true));
    } else if (const char* v5 = value("--tolerance=")) {
      tolerance = NumberFlag(arg, v5, 0.0, 1.0);
    } else if (const char* v6 = value("--explain-dump=")) {
      dump_path = v6;
    } else if (const char* v7 = value("--window=")) {
      window_ns =
          static_cast<long long>(NumberFlag(arg, v7, 0.0, 1e18, true));
    } else if (const char* v8 = value("--expect=")) {
      expect = v8;
    } else if (const char* v9 = value("--folded=")) {
      folded_path = v9;
    } else if (arg == "--compare") {
      compare_mode = true;
    } else if (arg == "--json") {
      json_out = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--", 0) == 0) {
      UsageError("unknown flag: " + arg);
    } else {
      paths.push_back(arg);
    }
  }
  if (!compare_mode && !paths.empty()) {
    UsageError("unexpected argument: " + paths[0]);
  }

  if (compare_mode) {
    if (paths.size() != 2) {
      UsageError("--compare needs exactly two paths (old, new)");
    }
    std::string old_text, new_text, error;
    if (!LoadText(paths[0], &old_text) || !LoadText(paths[1], &new_text)) {
      return 2;
    }
    ts::CompareResult result;
    if (!ts::Compare(old_text, new_text, tolerance, &result, &error)) {
      return InputError(error);
    }
    const std::string report =
        json_out ? ts::CompareToJson(result) : ts::CompareToText(result);
    if (!WriteOutput(out_path, report)) return 2;
    AppendStepSummary(ts::CompareToMarkdown(result));
    return result.ok() ? 0 : 1;
  }

  if (!folded_path.empty()) {
    std::string text, error;
    ts::Profile profile;
    if (!LoadText(folded_path, &text)) return 2;
    if (!ts::ParseFolded(text, &profile, &error)) {
      return InputError(folded_path + ": " + error);
    }
    ts::Aggregate agg;
    ts::AggregateProfile(profile, &agg);
    const std::string report = json_out ? ts::ProfileToJson(agg, top_k)
                                        : ts::ProfileToText(agg, top_k);
    return WriteOutput(out_path, report) ? 0 : 2;
  }

  if (!dump_path.empty()) {
    ts::JsonValue dump;
    if (!LoadJson(dump_path, &dump)) return 2;
    ts::ExplainResult result;
    std::string error;
    if (!ts::ExplainDump(dump, window_ns, &result, &error)) {
      return InputError(error);
    }
    const std::string report =
        json_out ? ts::ExplainToJson(result) : ts::ExplainToText(result);
    if (!WriteOutput(out_path, report)) return 2;
    if (!expect.empty()) {
      const std::size_t colon = expect.find(':');
      if (colon == std::string::npos) {
        UsageError("--expect wants CATEGORY:SHARE, e.g. fsync:0.5");
      }
      ts::Category cat;
      if (!ts::CategoryFromName(expect.substr(0, colon), &cat)) {
        UsageError("--expect: unknown category " + expect.substr(0, colon));
      }
      const double want = NumberFlag("--expect=" + expect,
                                     expect.c_str() + colon + 1, -HUGE_VAL,
                                     HUGE_VAL);
      const double got = result.growth_share[static_cast<std::size_t>(cat)];
      if (!result.have_growth || got < want) {
        std::fprintf(stderr,
                     "tracestats: --expect failed: %s explains %.1f%% of "
                     "the growth, wanted >= %.1f%%\n",
                     expect.substr(0, colon).c_str(), 100.0 * got,
                     100.0 * want);
        return 1;
      }
    }
    return 0;
  }

  if (trace_path.empty()) {
    UsageError("--trace, --folded, --compare or --explain-dump is required");
  }
  ts::JsonValue trace;
  if (!LoadJson(trace_path, &trace)) return 2;
  ts::JsonValue metrics;
  const bool have_metrics = !metrics_path.empty();
  if (have_metrics && !LoadJson(metrics_path, &metrics)) return 2;

  ts::AnalyzeResult result;
  std::string error;
  if (!ts::Analyze(trace, have_metrics ? &metrics : nullptr, top_k, 0.01,
                   &result, &error)) {
    return InputError(error);
  }
  const std::string report =
      json_out ? ts::ResultToJson(result) : ts::ResultToText(result);
  if (!WriteOutput(out_path, report)) return 2;
  if (check && !result.check_ok) {
    std::fprintf(stderr, "tracestats: --check failed (%zu classes out of "
                         "tolerance)\n",
                 result.check_messages.size());
    return 1;
  }
  return 0;
}
