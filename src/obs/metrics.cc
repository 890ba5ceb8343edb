#include "obs/metrics.h"

#include "common/json_text.h"

namespace dufs::obs {

namespace internal {

CounterCell& DummyCounter() {
  static CounterCell cell;
  return cell;
}

GaugeCell& DummyGauge() {
  static GaugeCell cell;
  return cell;
}

HistogramCell& DummyHistogram() {
  static HistogramCell cell;
  return cell;
}

}  // namespace internal

namespace {

template <typename CellMap>
auto* GetOrCreate(CellMap& cells, const std::string& key) {
  auto it = cells.find(key);
  if (it == cells.end()) {
    it = cells
             .emplace(key, std::make_unique<
                               typename CellMap::mapped_type::element_type>())
             .first;
  }
  return it->second.get();
}

void AppendHistogram(std::string& out, const LatencyHistogram& h) {
  out += "{\"count\":" + std::to_string(h.count());
  out += ",\"sum\":" + std::to_string(h.sum());
  out += ",\"p50\":" + std::to_string(h.Percentile(50));
  out += ",\"p95\":" + std::to_string(h.Percentile(95));
  out += ",\"p99\":" + std::to_string(h.Percentile(99));
  out += ",\"max\":" + std::to_string(h.MaxSample());
  out += "}";
}

// Shared by per-node and merged sections: three sorted sub-objects.
template <typename Counters, typename Gauges, typename GaugeMaxes,
          typename GaugeMins, typename Histos>
void AppendSection(std::string& out, const Counters& counters,
                   const Gauges& gauges, const GaugeMaxes& gauge_maxes,
                   const GaugeMins& gauge_mins, const Histos& histos) {
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [key, value] : counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, key);
    out += ':' + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [key, value] : gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, key);
    out += ":{\"value\":" + std::to_string(value) +
           ",\"min\":" + std::to_string(gauge_mins.at(key)) +
           ",\"max\":" + std::to_string(gauge_maxes.at(key)) + "}";
  }
  out += "},\"hists\":{";
  first = true;
  for (const auto& [key, hist] : histos) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, key);
    out += ':';
    AppendHistogram(out, hist);
  }
  out += "}}";
}

}  // namespace

Counter Scope::counter(const std::string& key) {
  return Counter(GetOrCreate(counters_, key));
}

Gauge Scope::gauge(const std::string& key) {
  return Gauge(GetOrCreate(gauges_, key));
}

Histogram Scope::histogram(const std::string& key) {
  return Histogram(GetOrCreate(histograms_, key));
}

Scope& MetricsRegistry::scope(const std::string& node) {
  auto it = scopes_.find(node);
  if (it == scopes_.end()) {
    it = scopes_.emplace(node, std::make_unique<Scope>(node)).first;
  }
  return *it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::Merged() const {
  Snapshot snap;
  for (const auto& [node, scope] : scopes_) {
    for (const auto& [key, cell] : scope->counters()) {
      snap.counters[key] += cell->value;
    }
    for (const auto& [key, cell] : scope->gauges()) {
      snap.gauges[key] += cell->value;
      auto it = snap.gauge_maxes.find(key);
      if (it == snap.gauge_maxes.end()) {
        snap.gauge_maxes[key] = cell->max;
      } else if (cell->max > it->second) {
        it->second = cell->max;
      }
      const std::int64_t low = cell->min_seen ? cell->min : cell->value;
      auto mit = snap.gauge_mins.find(key);
      if (mit == snap.gauge_mins.end()) {
        snap.gauge_mins[key] = low;
      } else if (low < mit->second) {
        mit->second = low;
      }
    }
    for (const auto& [key, cell] : scope->histograms()) {
      snap.histograms[key].Merge(cell->hist);
    }
  }
  return snap;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"nodes\":{";
  bool first = true;
  for (const auto& [node, scope] : scopes_) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, node);
    out += ':';
    // Per-node view: adapt cell maps to plain value maps for the shared
    // section writer.
    std::map<std::string, std::uint64_t> counters;
    for (const auto& [key, cell] : scope->counters()) {
      counters[key] = cell->value;
    }
    std::map<std::string, std::int64_t> gauges, gauge_maxes, gauge_mins;
    for (const auto& [key, cell] : scope->gauges()) {
      gauges[key] = cell->value;
      gauge_maxes[key] = cell->max;
      gauge_mins[key] = cell->min_seen ? cell->min : cell->value;
    }
    std::map<std::string, LatencyHistogram> histos;
    for (const auto& [key, cell] : scope->histograms()) {
      histos.emplace(key, cell->hist);
    }
    AppendSection(out, counters, gauges, gauge_maxes, gauge_mins, histos);
  }
  out += "},\"merged\":";
  const Snapshot snap = Merged();
  AppendSection(out, snap.counters, snap.gauges, snap.gauge_maxes,
                snap.gauge_mins, snap.histograms);
  out += "}";
  return out;
}

}  // namespace dufs::obs
