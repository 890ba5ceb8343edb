// Metrics registry — the counting half of the observability layer.
//
// Named counters, gauges and LatencyHistogram-backed timers, scoped per sim
// node ("client0", "zk3", ...). Hot paths hold value-type handles (Counter /
// Gauge / Histogram) wrapping a stable cell pointer: recording is one
// pointer chase plus an add — no map lookups, no branches. A default-
// constructed handle writes to a static dummy cell, so instrumented code
// never checks "is observability attached?" (null-object pattern); that is
// what keeps the registry cheap enough to leave on for every bench run.
//
// Single-threaded by design, like the simulator. Scope storage uses
// std::map so snapshots and JSON export iterate in a deterministic order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/stats.h"
#include "obs/name.h"

namespace dufs::obs {

namespace internal {

struct CounterCell {
  std::uint64_t value = 0;
};

struct GaugeCell {
  std::int64_t value = 0;
  std::int64_t max = 0;  // high-watermark since creation
  // Low-watermark over *recorded* values (the implicit initial 0 is
  // excluded, so a queue that never drained during the run reports a
  // positive min — that is what distinguishes idle from saturated).
  std::int64_t min = 0;
  bool min_seen = false;
};

struct HistogramCell {
  LatencyHistogram hist;
};

CounterCell& DummyCounter();
GaugeCell& DummyGauge();
HistogramCell& DummyHistogram();

}  // namespace internal

// Monotone event count (ops issued, bytes journaled, cache hits, ...).
class Counter {
 public:
  Counter() : cell_(&internal::DummyCounter()) {}
  explicit Counter(internal::CounterCell* cell) : cell_(cell) {}

  void Inc(std::uint64_t by = 1) { cell_->value += by; }
  std::uint64_t value() const { return cell_->value; }

 private:
  internal::CounterCell* cell_;
};

// Instantaneous level (queue depth, in-flight requests); tracks its
// high-watermark so a snapshot taken after the run still shows contention.
class Gauge {
 public:
  Gauge() : cell_(&internal::DummyGauge()) {}
  explicit Gauge(internal::GaugeCell* cell) : cell_(cell) {}

  void Set(std::int64_t v) {
    cell_->value = v;
    if (v > cell_->max) cell_->max = v;
    if (!cell_->min_seen || v < cell_->min) {
      cell_->min = v;
      cell_->min_seen = true;
    }
  }
  void Add(std::int64_t delta) { Set(cell_->value + delta); }
  std::int64_t value() const { return cell_->value; }
  std::int64_t max() const { return cell_->max; }
  // Lowest recorded value; the current value when nothing was recorded yet.
  std::int64_t min() const {
    return cell_->min_seen ? cell_->min : cell_->value;
  }

 private:
  internal::GaugeCell* cell_;
};

// Distribution of int64 samples: latencies in nanoseconds ("timer" usage)
// or plain sizes (fsync batch size). Percentile semantics are those of
// LatencyHistogram (log-scaled buckets, upper-bound answers).
class Histogram {
 public:
  Histogram() : cell_(&internal::DummyHistogram()) {}
  explicit Histogram(internal::HistogramCell* cell) : cell_(cell) {}

  void Record(std::int64_t sample) { cell_->hist.Add(sample); }
  const LatencyHistogram& hist() const { return cell_->hist; }

 private:
  internal::HistogramCell* cell_;
};

using Timer = Histogram;  // Record(latency_ns)

// All metrics of one sim node. Handles returned here stay valid for the
// Scope's lifetime (cells are heap-allocated, never moved).
class Scope {
 public:
  explicit Scope(std::string name) : name_(std::move(name)) {}

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  const std::string& name() const { return name_; }

  Counter counter(Name key);
  Gauge gauge(Name key);
  Histogram histogram(Name key);
  Timer timer(Name key) { return histogram(key); }

  const std::map<std::string, std::unique_ptr<internal::CounterCell>>&
  counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<internal::GaugeCell>>& gauges()
      const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<internal::HistogramCell>>&
  histograms() const {
    return histograms_;
  }

 private:
  std::string name_;
  std::map<std::string, std::unique_ptr<internal::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<internal::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<internal::HistogramCell>> histograms_;
};

// The registry: one Scope per node, plus a cross-node merge.
class MetricsRegistry {
 public:
  // Get-or-create; the Scope lives as long as the registry.
  Scope& scope(const std::string& node);

  const std::map<std::string, std::unique_ptr<Scope>>& scopes() const {
    return scopes_;
  }

  // Cross-node merge: counters and gauge values sum, gauge maxes take the
  // max, gauge mins the min over nodes that recorded one, histograms Merge.
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, std::int64_t> gauge_maxes;
    std::map<std::string, std::int64_t> gauge_mins;
    std::map<std::string, LatencyHistogram> histograms;
  };
  Snapshot Merged() const;

  // {"nodes": {<node>: {...}}, "merged": {...}} — keys sorted, values
  // integral, so equal registries serialize byte-identically.
  std::string ToJson() const;

 private:
  std::map<std::string, std::unique_ptr<Scope>> scopes_;
};

}  // namespace dufs::obs
