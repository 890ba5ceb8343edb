// Trace analytics over the repo's own exports: latency decomposition and
// critical-path extraction from the Chrome trace_event JSON (obs::Tracer),
// cross-checked against the metrics registry JSON, and the root-causing of
// anomaly dumps.
//
// Everything here is deterministic: integer nanoseconds throughout, sorted
// aggregation maps, fixed output ordering — identical inputs produce
// byte-identical reports.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "json.h"

namespace dufs::tracestats {

// Where a nanosecond of an op's latency is attributed. Declaration order is
// attribution priority: when spans overlap, the highest-priority covering
// span wins the segment (an op nanosecond inside both a zk-rpc and a
// quorum-round belongs to the quorum round).
enum class Category : int {
  kClient = 0,  // root op span with nothing deeper covering it
  kOther,       // unrecognized span
  kRpcWait,     // zk-rpc / backend round trip not explained deeper (mostly
                // network propagation + server dispatch)
  kBackend,     // pvfs-call / mds-call / oss-call service time
  kNicWait,     // NIC serialization queue wait (nic-tx/rx wait_ns prefix)
  kWire,        // NIC serialization (transfer active on the link)
  kZkQueue,     // zk-read / zk-write server-side queue + processing
  kQuorum,      // quorum-round (ZAB proposal to quorum ack)
  kFsync,       // journal fsync-batch
  kCount
};
inline constexpr int kCategoryCount = static_cast<int>(Category::kCount);
const char* CategoryName(Category c);

using CategoryNs = std::array<std::int64_t, kCategoryCount>;

// One analyzed op: the root span, its decomposition, and the merged
// time-ordered critical-path segments.
struct OpBreakdown {
  std::string op;  // root span name == op class ("create", "stat", ...)
  std::int64_t trace_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::string path;  // root span "path" arg, when recorded
  CategoryNs ns{};
  std::vector<std::pair<Category, std::int64_t>> segments;
};

struct ClassStats {
  std::string op;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  CategoryNs ns{};
  // From the metrics registry's merged "op.<op>_ns" histogram; -1 when the
  // registry was not provided or has no such histogram.
  std::int64_t hist_sum_ns = -1;
  std::uint64_t hist_count = 0;
};

struct AnalyzeResult {
  std::vector<ClassStats> classes;   // sorted by op name
  std::vector<OpBreakdown> slowest;  // top-K by duration, descending
  std::uint64_t total_ops = 0;
  std::uint64_t orphan_events = 0;  // "X" events with no/unknown trace id
  // Decomposition-vs-histogram cross-check (runs when a registry histogram
  // exists for the class). A failure message per violated class.
  bool check_ok = true;
  std::vector<std::string> check_messages;
};

// `metrics` may be null (no cross-check). `check_tol` is the allowed
// relative difference between the per-class trace total and the histogram
// sum (acceptance criterion: 0.01).
bool Analyze(const JsonValue& trace, const JsonValue* metrics, int top_k,
             double check_tol, AnalyzeResult* out, std::string* error);

std::string ResultToJson(const AnalyzeResult& r);
std::string ResultToText(const AnalyzeResult& r);

// --explain-dump: root-cause an anomaly dump (obs::Tracer::DumpJson via the
// incident engine). The dump's newest spans per track hold spans both before and during the incident; ops whose root starts in
// the anomaly window [t_anomaly - window, t_anomaly] are compared against
// the older "healthy baseline" ops in the same dump, and the growth in mean
// latency is attributed per category ("the spike is 86% fsync").
struct ExplainResult {
  // From the dump's "anomaly" object.
  std::string type;
  std::string node;
  std::string detail;
  std::int64_t anomaly_t_ns = 0;
  std::int64_t window_ns = 0;  // effective (override or dump value)
  std::int64_t split_ns = 0;   // roots at/after this are anomaly-window ops

  std::uint64_t baseline_ops = 0;
  std::uint64_t window_ops = 0;
  std::int64_t baseline_total_ns = 0;
  std::int64_t window_total_ns = 0;
  CategoryNs baseline_ns{};
  CategoryNs window_cat_ns{};

  // Mean-latency growth (window mean − baseline mean) and its attribution.
  // growth_share[c] = per-category mean growth / total mean growth; shares
  // sum to 1 but an individual share may exceed 1 when another category
  // shrank. Only meaningful when have_growth.
  double baseline_mean_ns = 0.0;
  double window_mean_ns = 0.0;
  double mean_growth_ns = 0.0;
  bool have_growth = false;
  std::array<double, kCategoryCount> growth_share{};
  Category dominant = Category::kClient;
};

// `window_override_ns` > 0 replaces the dump's recorded window size.
bool ExplainDump(const JsonValue& dump, std::int64_t window_override_ns,
                 ExplainResult* out, std::string* error);

std::string ExplainToText(const ExplainResult& r);
std::string ExplainToJson(const ExplainResult& r);

// Category lookup by report name ("fsync"); false when unknown.
bool CategoryFromName(const std::string& name, Category* out);

}  // namespace dufs::tracestats
