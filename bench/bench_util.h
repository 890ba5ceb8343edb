// Shared helpers for the figure-reproduction benches: tiny flag parsing,
// aligned table printing matching the series the paper plots, and the
// builders for the machine-readable exports (--metrics-json / --baseline)
// that make every bench row reproducible from artifacts alone. The
// flags -> observability -> exports wiring itself lives in bench/harness.h.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json_text.h"

namespace dufs::bench {

// --flag=value / --flag value / --flag (bool). Positional (non --) arguments
// abort with the usage string; unrecognized --flags are parsed but simply
// never read back, so benches can share command lines.
class Flags {
 public:
  Flags(int argc, char** argv, std::string usage)
      : usage_(std::move(usage)) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind("--", 0) != 0) Fail("unexpected arg: " + args_[i]);
      std::string key = args_[i].substr(2);
      std::string value = "1";
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
      } else if (i + 1 < args_.size() && args_[i + 1].rfind("--", 0) != 0) {
        value = args_[++i];
      }
      values_.emplace_back(std::move(key), std::move(value));
    }
  }

  bool Bool(const std::string& key, bool fallback = false) const {
    const auto* v = Find(key);
    return v == nullptr ? fallback : (*v != "0" && *v != "false");
  }
  long Int(const std::string& key, long fallback) const {
    const auto* v = Find(key);
    return v == nullptr ? fallback : std::strtol(v->c_str(), nullptr, 10);
  }
  double Double(const std::string& key, double fallback) const {
    const auto* v = Find(key);
    return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
  }
  std::string Str(const std::string& key, std::string fallback) const {
    const auto* v = Find(key);
    // Two plain returns: a ternary mixing `std::move(fallback)` with `*v`
    // forms a prvalue from the const ref, silently copying — and pessimizes
    // the fallback path too.
    if (v != nullptr) return *v;
    return fallback;
  }
  // Comma-separated integer list. Empty segments (trailing comma, "a,,b")
  // are skipped rather than parsed as 0.
  std::vector<long> IntList(const std::string& key,
                            std::vector<long> fallback) const {
    const auto* v = Find(key);
    if (v == nullptr) return fallback;
    std::vector<long> out;
    std::size_t start = 0;
    while (start <= v->size()) {
      auto end = v->find(',', start);
      if (end == std::string::npos) end = v->size();
      if (end > start) {
        out.push_back(std::strtol(v->substr(start, end - start).c_str(),
                                  nullptr, 10));
      }
      start = end + 1;
    }
    return out;
  }

 private:
  const std::string* Find(const std::string& key) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "%s\nusage: %s\n", message.c_str(), usage_.c_str());
    std::exit(2);
  }

  std::string usage_;
  std::vector<std::string> args_;
  std::vector<std::pair<std::string, std::string>> values_;
};

// Hot-path telemetry for one measured configuration: throughput plus the
// per-op ZooKeeper cost and client-cache behaviour that explain it
// (deltas of ZkClient::requests_sent()/failovers() and MetaCache::Stats
// summed over the participating clients).
struct HotPathCounters {
  double ops = 0;
  double seconds = 0;
  std::uint64_t zk_requests = 0;
  std::uint64_t zk_failovers = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Failed ops; not exported, since any failed op fails the bench.
  std::uint64_t errors = 0;
};

inline void PrintHotPathHeader() {
  std::printf("%-28s %12s %12s %10s %10s %10s %10s\n", "config", "ops/s",
              "zk-req/op", "failovers", "hits", "misses", "hit-rate");
}

inline void PrintHotPathRow(const std::string& label,
                            const HotPathCounters& c) {
  const double ops = c.ops > 0 ? c.ops : 1;
  const double probes =
      static_cast<double>(c.cache_hits + c.cache_misses);
  std::printf("%-28s %12.1f %12.3f %10llu %10llu %10llu %9.1f%%\n",
              label.c_str(), c.seconds > 0 ? c.ops / c.seconds : 0.0,
              static_cast<double>(c.zk_requests) / ops,
              static_cast<unsigned long long>(c.zk_failovers),
              static_cast<unsigned long long>(c.cache_hits),
              static_cast<unsigned long long>(c.cache_misses),
              probes > 0
                  ? 100.0 * static_cast<double>(c.cache_hits) / probes
                  : 0.0);
}

// The shared %.17g formatter, kept under this name for dufsbench.
using dufs::AppendJsonNumber;

// Prints a "series table": one row per x value, one column per series —
// mirroring the figures' curves.
class SeriesTable {
 public:
  SeriesTable(std::string x_label, std::vector<std::string> series)
      : x_label_(std::move(x_label)), series_(std::move(series)) {}

  void AddRow(long x, std::vector<double> values) {
    rows_.emplace_back(x, std::move(values));
  }

  void Print(const std::string& title) const {
    std::printf("\n## %s\n", title.c_str());
    std::printf("%-10s", x_label_.c_str());
    for (const auto& s : series_) std::printf(" %18s", s.c_str());
    std::printf("\n");
    for (const auto& [x, values] : rows_) {
      std::printf("%-10ld", x);
      for (double v : values) std::printf(" %18.1f", v);
      std::printf("\n");
    }
  }

  // Appends this table as one JSON object:
  //   {"x_label":"procs","series":["dufs","basic"],"rows":[[8,1.5,0.2],...]}
  void AppendJson(std::string* out) const {
    *out += "{\"x_label\":\"" + JsonEscape(x_label_) + "\",\"series\":[";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      if (i > 0) *out += ',';
      *out += '"' + JsonEscape(series_[i]) + '"';
    }
    *out += "],\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r > 0) *out += ',';
      *out += '[';
      *out += std::to_string(rows_[r].first);
      for (double v : rows_[r].second) {
        *out += ',';
        AppendJsonNumber(out, v);
      }
      *out += ']';
    }
    *out += "]}";
  }

 private:
  std::string x_label_;
  std::vector<std::string> series_;
  std::vector<std::pair<long, std::vector<double>>> rows_;
};

// Accumulates everything a bench prints into one machine-readable document:
//
//   {"configs":[{"label":...,"ops":...,"ops_per_s":...,"zk_requests":...},..],
//    "tables":{"fig10 dir create":{...}},
//    "registry":{"nodes":{...},"merged":{...}}}
//
// The "configs" rows carry exactly the fields PrintHotPathRow derives its
// columns from, so a table row is reproducible from the JSON alone.
class MetricsJsonWriter {
 public:
  void AddCounters(const std::string& label, const HotPathCounters& c) {
    std::string row = "{\"label\":\"" + JsonEscape(label) + "\",\"ops\":";
    AppendJsonNumber(&row, c.ops);
    row += ",\"seconds\":";
    AppendJsonNumber(&row, c.seconds);
    row += ",\"ops_per_s\":";
    AppendJsonNumber(&row, c.seconds > 0 ? c.ops / c.seconds : 0.0);
    row += ",\"zk_requests\":" + std::to_string(c.zk_requests);
    row += ",\"zk_failovers\":" + std::to_string(c.zk_failovers);
    row += ",\"cache_hits\":" + std::to_string(c.cache_hits);
    row += ",\"cache_misses\":" + std::to_string(c.cache_misses);
    row += '}';
    configs_.push_back(std::move(row));
  }

  void AddValue(const std::string& key, double value) {
    std::string kv = "\"" + JsonEscape(key) + "\":";
    AppendJsonNumber(&kv, value);
    values_.push_back(std::move(kv));
  }

  void AddTable(const std::string& title, const SeriesTable& table) {
    std::string entry = "\"" + JsonEscape(title) + "\":";
    table.AppendJson(&entry);
    tables_.push_back(std::move(entry));
  }

  // `json` is a complete JSON object (obs::MetricsRegistry::ToJson()).
  void SetRegistryJson(std::string json) { registry_ = std::move(json); }

  // `json` is a complete JSON object (obs::TimelineSampler::ToJson()).
  void SetTimelineJson(std::string json) { timeline_ = std::move(json); }

  // `json` is a complete JSON object (obs::Incidents::ReportJson()).
  void SetIncidentsJson(std::string json) { incidents_ = std::move(json); }

  std::string ToJson() const {
    std::string out = "{\"configs\":[";
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      if (i > 0) out += ',';
      out += configs_[i];
    }
    out += ']';
    for (const auto& kv : values_) {
      out += ',';
      out += kv;
    }
    if (!tables_.empty()) {
      out += ",\"tables\":{";
      for (std::size_t i = 0; i < tables_.size(); ++i) {
        if (i > 0) out += ',';
        out += tables_[i];
      }
      out += '}';
    }
    if (!timeline_.empty()) {
      out += ",\"timeline\":";
      out += timeline_;
    }
    if (!incidents_.empty()) {
      out += ",\"incidents\":";
      out += incidents_;
    }
    if (!registry_.empty()) {
      out += ",\"registry\":";
      out += registry_;
    }
    out += '}';
    return out;
  }

 private:
  std::vector<std::string> configs_;
  std::vector<std::string> values_;
  std::vector<std::string> tables_;
  std::string timeline_;
  std::string incidents_;
  std::string registry_;
};

// The perf-regression baseline: a flat map of headline scalars with a
// direction, diffable by `tracestats --compare`. Keys sort (std::map) and
// numbers print with %.17g, so a re-run of the same commit with the same
// flags produces a byte-identical file.
//
//   {"bench":"ablation_fastpath","schema":1,
//    "metrics":{"create.gc_on.ops_per_s":{"value":...,"better":"higher"},..}}
class BaselineWriter {
 public:
  explicit BaselineWriter(std::string bench) : bench_(std::move(bench)) {}

  // `higher` == true: bigger is better (throughput); false: smaller is
  // better (latency, zk requests per op).
  void Add(const std::string& key, double value, bool higher) {
    metrics_[key] = {value, higher};
  }
  void AddHigherBetter(const std::string& key, double value) {
    Add(key, value, true);
  }
  void AddLowerBetter(const std::string& key, double value) {
    Add(key, value, false);
  }

  bool empty() const { return metrics_.empty(); }

  std::string ToJson() const {
    std::string out = "{\"bench\":\"" + JsonEscape(bench_) +
                      "\",\"schema\":1,\"metrics\":{";
    bool first = true;
    for (const auto& [key, m] : metrics_) {
      if (!first) out += ',';
      first = false;
      out += '"' + JsonEscape(key) + "\":{\"value\":";
      AppendJsonNumber(&out, m.value);
      out += ",\"better\":\"";
      out += m.higher ? "higher" : "lower";
      out += "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    double value = 0;
    bool higher = true;
  };
  std::string bench_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace dufs::bench
