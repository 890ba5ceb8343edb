#include "analyze.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/json_text.h"

namespace dufs::tracestats {

namespace {

struct RawEvent {
  std::string name;
  std::string cat;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t trace = 0;
  std::int64_t wait_ns = -1;  // nic-tx/nic-rx arg; -1 when absent
  std::string path;
};

// One attributable interval with its category; built from spans, possibly
// split (NIC events contribute a wait part and a wire part).
struct Piece {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  Category cat = Category::kClient;
};

Category Classify(const RawEvent& e) {
  if (e.name == "fsync-batch") return Category::kFsync;
  if (e.name == "quorum-round") return Category::kQuorum;
  if (e.name == "zk-write" || e.name == "zk-read") return Category::kZkQueue;
  if (e.name == "pvfs-call" || e.name == "mds-call" || e.name == "oss-call") {
    return Category::kBackend;
  }
  if (e.name == "zk-rpc" || e.cat == "backend") return Category::kRpcWait;
  return Category::kOther;
}

void AddClipped(std::vector<Piece>* pieces, std::int64_t begin,
                std::int64_t end, std::int64_t lo, std::int64_t hi,
                Category cat) {
  begin = std::max(begin, lo);
  end = std::min(end, hi);
  if (begin < end) pieces->push_back(Piece{begin, end, cat});
}

// Decompose one op: every nanosecond of [root.ts, root.ts+dur) goes to the
// highest-priority piece covering it, so the categories sum to the root
// duration exactly.
OpBreakdown DecomposeOp(const RawEvent& root,
                        const std::vector<const RawEvent*>& children) {
  OpBreakdown op;
  op.op = root.name;
  op.trace_id = root.trace;
  op.start_ns = root.ts_ns;
  op.dur_ns = root.dur_ns;
  op.path = root.path;

  const std::int64_t lo = root.ts_ns;
  const std::int64_t hi = root.ts_ns + root.dur_ns;
  std::vector<Piece> pieces;
  pieces.push_back(Piece{lo, hi, Category::kClient});
  for (const RawEvent* e : children) {
    const std::int64_t b = e->ts_ns;
    const std::int64_t t = e->ts_ns + e->dur_ns;
    if (e->name == "nic-tx" || e->name == "nic-rx") {
      const std::int64_t wait =
          e->wait_ns >= 0 ? std::min(e->wait_ns, e->dur_ns) : 0;
      AddClipped(&pieces, b, b + wait, lo, hi, Category::kNicWait);
      AddClipped(&pieces, b + wait, t, lo, hi, Category::kWire);
    } else {
      AddClipped(&pieces, b, t, lo, hi, Classify(*e));
    }
  }

  // Interval sweep over the elementary segments between span boundaries.
  std::vector<std::int64_t> bounds;
  bounds.reserve(pieces.size() * 2);
  for (const Piece& p : pieces) {
    bounds.push_back(p.begin);
    bounds.push_back(p.end);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const std::int64_t b = bounds[i];
    const std::int64_t t = bounds[i + 1];
    Category best = Category::kClient;
    for (const Piece& p : pieces) {
      if (p.begin <= b && t <= p.end && p.cat > best) best = p.cat;
    }
    op.ns[static_cast<std::size_t>(best)] += t - b;
    if (!op.segments.empty() && op.segments.back().first == best) {
      op.segments.back().second += t - b;
    } else {
      op.segments.emplace_back(best, t - b);
    }
  }
  return op;
}

std::string Percent(std::int64_t part, std::int64_t whole) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%",
                whole > 0 ? 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole)
                          : 0.0);
  return buf;
}

struct BaselineMetric {
  double value = 0;
  bool higher = true;
};

bool LoadBaseline(const JsonValue& doc,
                  std::map<std::string, BaselineMetric>* out,
                  std::string* error) {
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    *error = "baseline has no \"metrics\" object";
    return false;
  }
  for (const auto& [key, v] : metrics->members) {
    BaselineMetric m;
    m.value = v.GetNumber("value", 0.0);
    m.higher = v.GetString("better", "higher") != "lower";
    (*out)[key] = m;
  }
  return true;
}

// Shared pass for Analyze and ExplainDump: pull "X" events out of a trace
// (or dump) document, group by trace id, and decompose every op that has a
// root. Ops come out in trace-id order (deterministic).
bool CollectOps(const JsonValue& trace, std::vector<OpBreakdown>* ops,
                std::uint64_t* orphan_events, std::string* error) {
  const JsonValue* events = trace.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    *error = "trace has no \"traceEvents\" array";
    return false;
  }
  std::map<std::int64_t, std::vector<RawEvent>> by_trace;
  for (const JsonValue& ev : events->items) {
    if (!ev.is_object() || ev.GetString("ph") != "X") continue;
    RawEvent e;
    e.name = ev.GetString("name");
    e.cat = ev.GetString("cat");
    const JsonValue* ts = ev.Find("ts");
    const JsonValue* dur = ev.Find("dur");
    if (ts == nullptr || dur == nullptr) continue;
    e.ts_ns = MicrosRawToNanos(*ts);
    e.dur_ns = MicrosRawToNanos(*dur);
    if (const JsonValue* args = ev.Find("args"); args != nullptr) {
      e.trace = args->GetInt("trace", 0);
      e.wait_ns = args->GetInt("wait_ns", -1);
      e.path = args->GetString("path");
    }
    if (e.trace == 0) {
      ++*orphan_events;
      continue;
    }
    by_trace[e.trace].push_back(std::move(e));
  }
  for (const auto& [trace_id, group] : by_trace) {
    const RawEvent* root = nullptr;
    for (const RawEvent& e : group) {
      if (e.cat == "op" && (root == nullptr || e.ts_ns < root->ts_ns)) {
        root = &e;
      }
    }
    if (root == nullptr) {
      *orphan_events += group.size();
      continue;
    }
    std::vector<const RawEvent*> children;
    for (const RawEvent& e : group) {
      if (&e != root) children.push_back(&e);
    }
    ops->push_back(DecomposeOp(*root, children));
  }
  return true;
}

}  // namespace

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kClient: return "client";
    case Category::kOther: return "other";
    case Category::kRpcWait: return "rpc_wait";
    case Category::kBackend: return "backend";
    case Category::kNicWait: return "nic_wait";
    case Category::kWire: return "wire";
    case Category::kZkQueue: return "zk_queue";
    case Category::kQuorum: return "quorum";
    case Category::kFsync: return "fsync";
    case Category::kCount: break;
  }
  return "?";
}

bool Analyze(const JsonValue& trace, const JsonValue* metrics, int top_k,
             double check_tol, AnalyzeResult* out, std::string* error) {
  std::vector<OpBreakdown> ops;
  if (!CollectOps(trace, &ops, &out->orphan_events, error)) return false;

  // Aggregate per class, keep the slowest ops.
  std::map<std::string, ClassStats> classes;
  for (OpBreakdown& op : ops) {
    ClassStats& cs = classes[op.op];
    cs.op = op.op;
    ++cs.count;
    cs.total_ns += op.dur_ns;
    for (int i = 0; i < kCategoryCount; ++i) {
      cs.ns[static_cast<std::size_t>(i)] += op.ns[static_cast<std::size_t>(i)];
    }
    ++out->total_ops;
    out->slowest.push_back(std::move(op));
  }

  // Top-K slowest, deterministic tie-breaks (start time, then trace id).
  std::sort(out->slowest.begin(), out->slowest.end(),
            [](const OpBreakdown& a, const OpBreakdown& b) {
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.trace_id < b.trace_id;
            });
  if (top_k >= 0 &&
      out->slowest.size() > static_cast<std::size_t>(top_k)) {
    out->slowest.resize(static_cast<std::size_t>(top_k));
  }

  // Cross-check against the registry's merged op histograms.
  const JsonValue* hists = nullptr;
  if (metrics != nullptr) {
    if (const JsonValue* reg = metrics->Find("registry"); reg != nullptr) {
      if (const JsonValue* merged = reg->Find("merged"); merged != nullptr) {
        hists = merged->Find("hists");
      }
    }
  }
  for (auto& [op_name, cs] : classes) {
    if (hists != nullptr) {
      if (const JsonValue* h = hists->Find("op." + op_name + "_ns");
          h != nullptr) {
        cs.hist_sum_ns = h->GetInt("sum", -1);
        cs.hist_count = static_cast<std::uint64_t>(h->GetInt("count", 0));
      }
    }
    if (cs.hist_sum_ns >= 0) {
      const double sum = static_cast<double>(cs.hist_sum_ns);
      const double delta =
          std::fabs(static_cast<double>(cs.total_ns) - sum);
      if (delta > check_tol * std::max(sum, 1.0)) {
        out->check_ok = false;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s: trace total %lld ns vs histogram sum %lld ns "
                      "differ by more than %.2f%%",
                      op_name.c_str(), static_cast<long long>(cs.total_ns),
                      static_cast<long long>(cs.hist_sum_ns),
                      100.0 * check_tol);
        out->check_messages.push_back(buf);
      }
    }
    out->classes.push_back(cs);
  }
  return true;
}

std::string ResultToText(const AnalyzeResult& r) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "Trace analytics: %llu ops across %zu classes (%llu orphan "
                "events)\n",
                static_cast<unsigned long long>(r.total_ops),
                r.classes.size(),
                static_cast<unsigned long long>(r.orphan_events));
  out += buf;

  out += "\n## Latency decomposition by op class\n";
  std::snprintf(buf, sizeof(buf), "%-10s %8s %14s", "class", "count",
                "total_ns");
  out += buf;
  for (int c = 0; c < kCategoryCount; ++c) {
    std::snprintf(buf, sizeof(buf), " %9s",
                  CategoryName(static_cast<Category>(c)));
    out += buf;
  }
  out += '\n';
  for (const ClassStats& cs : r.classes) {
    std::snprintf(buf, sizeof(buf), "%-10s %8llu %14lld", cs.op.c_str(),
                  static_cast<unsigned long long>(cs.count),
                  static_cast<long long>(cs.total_ns));
    out += buf;
    for (int c = 0; c < kCategoryCount; ++c) {
      out += "   ";
      out += Percent(cs.ns[static_cast<std::size_t>(c)], cs.total_ns);
    }
    out += '\n';
  }

  out += "\n## Cross-check vs op.<class>_ns histograms\n";
  for (const ClassStats& cs : r.classes) {
    if (cs.hist_sum_ns < 0) {
      std::snprintf(buf, sizeof(buf), "%-10s (no histogram in registry)\n",
                    cs.op.c_str());
    } else {
      const double sum = static_cast<double>(cs.hist_sum_ns);
      const double pct =
          sum > 0
              ? 100.0 * (static_cast<double>(cs.total_ns) - sum) / sum
              : 0.0;
      std::snprintf(buf, sizeof(buf),
                    "%-10s trace=%lld hist=%lld (count %llu/%llu) "
                    "delta=%+.3f%%\n",
                    cs.op.c_str(), static_cast<long long>(cs.total_ns),
                    static_cast<long long>(cs.hist_sum_ns),
                    static_cast<unsigned long long>(cs.count),
                    static_cast<unsigned long long>(cs.hist_count), pct);
    }
    out += buf;
  }
  for (const std::string& msg : r.check_messages) {
    out += "CHECK FAILED: " + msg + "\n";
  }

  out += "\n## Slowest ops (critical path)\n";
  int rank = 1;
  for (const OpBreakdown& op : r.slowest) {
    std::snprintf(buf, sizeof(buf), "%2d. %-8s %10lld ns  trace=%lld%s%s\n",
                  rank++, op.op.c_str(), static_cast<long long>(op.dur_ns),
                  static_cast<long long>(op.trace_id),
                  op.path.empty() ? "" : "  path=",
                  op.path.c_str());
    out += buf;
    out += "    ";
    bool first = true;
    for (const auto& [cat, ns] : op.segments) {
      if (!first) out += " -> ";
      first = false;
      std::snprintf(buf, sizeof(buf), "%s %lld", CategoryName(cat),
                    static_cast<long long>(ns));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

std::string ResultToJson(const AnalyzeResult& r) {
  std::string out = "{\"total_ops\":" + std::to_string(r.total_ops);
  out += ",\"orphan_events\":" + std::to_string(r.orphan_events);
  out += ",\"check_ok\":";
  out += r.check_ok ? "true" : "false";
  out += ",\"classes\":{";
  bool first = true;
  for (const ClassStats& cs : r.classes) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(cs.op) + "\":{\"count\":" +
           std::to_string(cs.count) +
           ",\"total_ns\":" + std::to_string(cs.total_ns);
    out += ",\"hist_sum_ns\":" + std::to_string(cs.hist_sum_ns);
    out += ",\"hist_count\":" + std::to_string(cs.hist_count);
    out += ",\"by_category\":{";
    for (int c = 0; c < kCategoryCount; ++c) {
      if (c > 0) out += ',';
      out += '"';
      out += CategoryName(static_cast<Category>(c));
      out += "\":" + std::to_string(cs.ns[static_cast<std::size_t>(c)]);
    }
    out += "}}";
  }
  out += "},\"slowest\":[";
  first = true;
  for (const OpBreakdown& op : r.slowest) {
    if (!first) out += ',';
    first = false;
    out += "{\"op\":\"" + JsonEscape(op.op) + "\"";
    out += ",\"trace\":" + std::to_string(op.trace_id);
    out += ",\"start_ns\":" + std::to_string(op.start_ns);
    out += ",\"dur_ns\":" + std::to_string(op.dur_ns);
    if (!op.path.empty()) out += ",\"path\":\"" + JsonEscape(op.path) + "\"";
    out += ",\"critical_path\":[";
    for (std::size_t i = 0; i < op.segments.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"category\":\"";
      out += CategoryName(op.segments[i].first);
      out += "\",\"ns\":" + std::to_string(op.segments[i].second) + "}";
    }
    out += "]}";
  }
  out += "],\"check_messages\":[";
  first = true;
  for (const std::string& msg : r.check_messages) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(msg) + '"';
  }
  out += "]}";
  return out;
}

bool CategoryFromName(const std::string& name, Category* out) {
  for (int c = 0; c < kCategoryCount; ++c) {
    if (name == CategoryName(static_cast<Category>(c))) {
      *out = static_cast<Category>(c);
      return true;
    }
  }
  return false;
}

bool ExplainDump(const JsonValue& dump, std::int64_t window_override_ns,
                 ExplainResult* out, std::string* error) {
  const JsonValue* anomaly = dump.Find("anomaly");
  if (anomaly == nullptr || !anomaly->is_object()) {
    *error = "dump has no \"anomaly\" object (is this a flight-recorder "
             "dump?)";
    return false;
  }
  out->type = anomaly->GetString("type");
  out->node = anomaly->GetString("node");
  out->detail = anomaly->GetString("detail");
  out->anomaly_t_ns = anomaly->GetInt("t_ns", 0);
  out->window_ns = window_override_ns > 0
                       ? window_override_ns
                       : anomaly->GetInt("window_ns", 0);
  if (out->window_ns <= 0) {
    *error = "dump records no window_ns and no --window given";
    return false;
  }
  out->split_ns = out->anomaly_t_ns - out->window_ns;

  std::vector<OpBreakdown> ops;
  std::uint64_t orphans = 0;
  if (!CollectOps(dump, &ops, &orphans, error)) return false;

  for (const OpBreakdown& op : ops) {
    const bool in_window = op.start_ns >= out->split_ns;
    if (in_window) {
      ++out->window_ops;
      out->window_total_ns += op.dur_ns;
    } else {
      ++out->baseline_ops;
      out->baseline_total_ns += op.dur_ns;
    }
    for (int c = 0; c < kCategoryCount; ++c) {
      const auto i = static_cast<std::size_t>(c);
      (in_window ? out->window_cat_ns : out->baseline_ns)[i] += op.ns[i];
    }
  }
  if (out->window_ops == 0) {
    *error = "no ops start inside the anomaly window — widen --window or "
             "grow the flight-recorder capacity";
    return false;
  }
  if (out->baseline_ops == 0) {
    *error = "no healthy-baseline ops precede the anomaly window in this "
             "dump — grow the flight-recorder capacity";
    return false;
  }

  out->baseline_mean_ns = static_cast<double>(out->baseline_total_ns) /
                          static_cast<double>(out->baseline_ops);
  out->window_mean_ns = static_cast<double>(out->window_total_ns) /
                        static_cast<double>(out->window_ops);
  out->mean_growth_ns = out->window_mean_ns - out->baseline_mean_ns;
  out->have_growth = out->mean_growth_ns > 0.0;
  double best = -1.0;
  for (int c = 0; c < kCategoryCount; ++c) {
    const auto i = static_cast<std::size_t>(c);
    const double growth =
        static_cast<double>(out->window_cat_ns[i]) /
            static_cast<double>(out->window_ops) -
        static_cast<double>(out->baseline_ns[i]) /
            static_cast<double>(out->baseline_ops);
    out->growth_share[i] =
        out->have_growth ? growth / out->mean_growth_ns : 0.0;
    if (out->growth_share[i] > best) {
      best = out->growth_share[i];
      out->dominant = static_cast<Category>(c);
    }
  }
  return true;
}

std::string ExplainToText(const ExplainResult& r) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "Anomaly explain: %s on %s at t=%lld ns (window %lld ns)\n",
                r.type.c_str(), r.node.c_str(),
                static_cast<long long>(r.anomaly_t_ns),
                static_cast<long long>(r.window_ns));
  out += buf;
  if (!r.detail.empty()) out += "  detail: " + r.detail + "\n";
  std::snprintf(buf, sizeof(buf),
                "  baseline: %llu ops, mean %.0f ns | window: %llu ops, "
                "mean %.0f ns | growth %+.0f ns\n",
                static_cast<unsigned long long>(r.baseline_ops),
                r.baseline_mean_ns,
                static_cast<unsigned long long>(r.window_ops),
                r.window_mean_ns, r.mean_growth_ns);
  out += buf;
  if (!r.have_growth) {
    out += "  no mean-latency growth in the anomaly window; attribution "
           "not meaningful\n";
    return out;
  }
  out += "\n## Growth attribution (share of mean-latency growth)\n";
  for (int c = 0; c < kCategoryCount; ++c) {
    const auto i = static_cast<std::size_t>(c);
    std::snprintf(buf, sizeof(buf), "  %-9s %+7.1f%%%s\n",
                  CategoryName(static_cast<Category>(c)),
                  100.0 * r.growth_share[i],
                  static_cast<Category>(c) == r.dominant ? "  <-- dominant"
                                                         : "");
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\nVerdict: the anomaly is %.0f%% %s\n",
                100.0 * r.growth_share[static_cast<std::size_t>(r.dominant)],
                CategoryName(r.dominant));
  out += buf;
  return out;
}

std::string ExplainToJson(const ExplainResult& r) {
  std::string out = "{\"type\":\"" + JsonEscape(r.type) + "\"";
  out += ",\"node\":\"" + JsonEscape(r.node) + "\"";
  if (!r.detail.empty()) {
    out += ",\"detail\":\"" + JsonEscape(r.detail) + "\"";
  }
  out += ",\"t_ns\":" + std::to_string(r.anomaly_t_ns);
  out += ",\"window_ns\":" + std::to_string(r.window_ns);
  out += ",\"baseline_ops\":" + std::to_string(r.baseline_ops);
  out += ",\"window_ops\":" + std::to_string(r.window_ops);
  out += ",\"baseline_mean_ns\":";
  AppendJsonNumber(&out, r.baseline_mean_ns);
  out += ",\"window_mean_ns\":";
  AppendJsonNumber(&out, r.window_mean_ns);
  out += ",\"mean_growth_ns\":";
  AppendJsonNumber(&out, r.mean_growth_ns);
  out += ",\"have_growth\":";
  out += r.have_growth ? "true" : "false";
  out += ",\"growth_share\":{";
  for (int c = 0; c < kCategoryCount; ++c) {
    if (c > 0) out += ',';
    out += '"';
    out += CategoryName(static_cast<Category>(c));
    out += "\":";
    AppendJsonNumber(&out, r.growth_share[static_cast<std::size_t>(c)]);
  }
  out += "},\"dominant\":\"";
  out += CategoryName(r.dominant);
  out += "\"}";
  return out;
}

bool Compare(const JsonValue& old_base, const JsonValue& new_base, double tol,
             CompareResult* out, std::string* error) {
  std::map<std::string, BaselineMetric> old_metrics, new_metrics;
  if (!LoadBaseline(old_base, &old_metrics, error)) {
    *error = "old baseline: " + *error;
    return false;
  }
  if (!LoadBaseline(new_base, &new_metrics, error)) {
    *error = "new baseline: " + *error;
    return false;
  }
  char buf[320];
  for (const auto& [key, old_m] : old_metrics) {
    const auto it = new_metrics.find(key);
    if (it == new_metrics.end()) {
      ++out->regressions;
      out->ok = false;
      std::snprintf(buf, sizeof(buf), "REGRESSION %-44s missing from new",
                    key.c_str());
      out->lines.push_back(buf);
      continue;
    }
    const BaselineMetric& new_m = it->second;
    const double delta_pct =
        old_m.value != 0.0
            ? 100.0 * (new_m.value - old_m.value) / std::fabs(old_m.value)
            : (new_m.value == 0.0 ? 0.0 : 100.0);
    const bool regressed =
        old_m.higher ? new_m.value < old_m.value * (1.0 - tol)
                     : new_m.value > old_m.value * (1.0 + tol);
    if (regressed) {
      ++out->regressions;
      out->ok = false;
    }
    std::snprintf(buf, sizeof(buf),
                  "%-10s %-44s %14.6g -> %14.6g  %+7.2f%% (%s better)",
                  regressed ? "REGRESSION" : "ok", key.c_str(), old_m.value,
                  new_m.value, delta_pct, old_m.higher ? "higher" : "lower");
    out->lines.push_back(buf);
  }
  for (const auto& [key, new_m] : new_metrics) {
    if (old_metrics.find(key) != old_metrics.end()) continue;
    std::snprintf(buf, sizeof(buf), "%-10s %-44s (new metric, %14.6g)", "new",
                  key.c_str(), new_m.value);
    out->lines.push_back(buf);
  }
  return true;
}

std::string CompareToText(const CompareResult& r, double tol) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Baseline comparison (tolerance %.1f%%): %s (%d regressions, "
                "%zu metrics)\n",
                100.0 * tol, r.ok ? "OK" : "FAILED", r.regressions,
                r.lines.size());
  out += buf;
  for (const std::string& line : r.lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string CompareToMarkdown(const CompareResult& r, double tol) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "### perf-compare gate: %s (%d regressions, tolerance "
                "%.1f%%)\n\n",
                r.ok ? "PASS" : "FAIL", r.regressions, 100.0 * tol);
  out += buf;
  // The lines are pre-formatted fixed-width text; a fenced block keeps the
  // columns aligned in the rendered summary.
  out += "```text\n";
  for (const std::string& line : r.lines) {
    out += line;
    out += '\n';
  }
  out += "```\n";
  return out;
}

std::string CompareToJson(const CompareResult& r, double tol) {
  std::string out = "{\"ok\":";
  out += r.ok ? "true" : "false";
  out += ",\"regressions\":" + std::to_string(r.regressions);
  out += ",\"tolerance\":";
  AppendJsonNumber(&out, tol);
  out += ",\"lines\":[";
  for (std::size_t i = 0; i < r.lines.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + JsonEscape(r.lines[i]) + '"';
  }
  out += "]}";
  return out;
}

}  // namespace dufs::tracestats
