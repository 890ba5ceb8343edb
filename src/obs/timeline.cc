#include "obs/timeline.h"

#include "common/json_text.h"

namespace dufs::obs {

TimelineSampler::Series& TimelineSampler::AddSeries(const std::string& id) {
  Series& s = series_[id];
  // Zero-backfill a series registered after sampling began so its ring
  // stays index-aligned with the tick ring.
  s.values.resize(ticks_.size(), 0);
  return s;
}

void TimelineSampler::WatchGauge(const std::string& id, Gauge g) {
  Series& s = AddSeries(id);
  s.gauge = g;
  s.is_counter = false;
}

void TimelineSampler::WatchCounter(const std::string& id, Counter c) {
  Series& s = AddSeries(id);
  s.counter = c;
  s.is_counter = true;
}

void TimelineSampler::WatchAllGauges(MetricsRegistry& registry) {
  for (const auto& [node, scope] : registry.scopes()) {
    for (const auto& [key, cell] : scope->gauges()) {
      WatchGauge(node + "/" + key, Gauge(cell.get()));
    }
  }
}

void TimelineSampler::SampleOnce(sim::SimTime now) {
  if (ticks_.size() < opts_.capacity) {
    ticks_.push_back(now);
    for (auto& [id, s] : series_) {
      s.values.push_back(s.is_counter
                             ? static_cast<std::int64_t>(s.counter.value())
                             : s.gauge.value());
    }
  } else {
    ticks_[head_] = now;
    for (auto& [id, s] : series_) {
      s.values[head_] = s.is_counter
                            ? static_cast<std::int64_t>(s.counter.value())
                            : s.gauge.value();
    }
    head_ = (head_ + 1) % opts_.capacity;
    ++dropped_;
  }
}

void TimelineSampler::Start(sim::Simulation& sim) {
  ++generation_;
  running_ = true;
  SampleOnce(sim.now());
  sim::CurrentSimulationScope scope(&sim);
  sim.Spawn(Pump(this, &sim, generation_));
}

sim::Task<void> TimelineSampler::Pump(TimelineSampler* self,
                                      sim::Simulation* sim,
                                      std::uint64_t generation) {
  while (true) {
    co_await sim->Delay(self->opts_.interval);
    if (self->generation_ != generation) co_return;  // Stop()ed or restarted
    self->SampleOnce(sim->now());
    if (sim->pending_events() == 0) {
      // The sampler is the only live actor; re-arming would advance sim
      // time forever under a bare Run(). Fall dormant instead.
      self->running_ = false;
      co_return;
    }
  }
}

std::string TimelineSampler::ToJson() const {
  std::string out = "{\"interval_ns\":" + std::to_string(opts_.interval);
  out += ",\"capacity\":" + std::to_string(opts_.capacity);
  out += ",\"dropped\":" + std::to_string(dropped_);
  out += ",\"t\":[";
  const std::size_t n = ticks_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out += ',';
    out += std::to_string(ticks_[(head_ + i) % n]);
  }
  out += "],\"series\":{";
  bool first = true;
  for (const auto& [id, s] : series_) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, id);
    out += ":[";
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) out += ',';
      // A late-registered series may be shorter than the tick ring only
      // transiently; AddSeries backfills, so sizes match here.
      out += std::to_string(s.values[(head_ + i) % n]);
    }
    out += ']';
  }
  out += "}}";
  return out;
}

}  // namespace dufs::obs
