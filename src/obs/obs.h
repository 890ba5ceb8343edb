// Observability bundle: one MetricsRegistry + one Tracer per testbed, and
// the per-node NodeObs handle that instrumented components hold.
//
// Components take a NodeObs by value in an AttachObs() call; a
// default-constructed NodeObs (null metrics scope, null tracer) is always
// safe to use — metric handles fall back to dummy cells and spans no-op.
#pragma once

#include <string>

#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"

namespace dufs::obs {

// What one instrumented component needs: where its metrics live, which
// trace track ("thread") its spans land on, and where incident hooks go.
struct NodeObs {
  Scope* metrics = nullptr;
  Tracer* tracer = nullptr;
  TrackId track = 0;
  // Anomaly-detector hooks; disarmed engines ignore every call, so holders
  // may invoke hooks unconditionally after a null check.
  Incidents* incidents = nullptr;
  // Interned node name for profiler frames (stable storage — safe inside
  // samples); "" for a default-constructed bundle.
  Name prof_name;

  Counter counter(Name key) const {
    return metrics != nullptr ? metrics->counter(key) : Counter();
  }
  Gauge gauge(Name key) const {
    return metrics != nullptr ? metrics->gauge(key) : Gauge();
  }
  Histogram histogram(Name key) const {
    return metrics != nullptr ? metrics->histogram(key) : Histogram();
  }
  Timer timer(Name key) const { return histogram(key); }
};

class Observability {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  Tracer& tracer() { return tracer_; }
  Incidents& incidents() { return incidents_; }

  // Wire the incident engine's clock + dump sources; idempotent. Call after
  // tracer().Bind(sim) (the testbed constructor does).
  void BindIncidents(sim::Simulation* sim) {
    incidents_.Bind(sim, &tracer_);
  }

  // Get-or-create the bundle for a named sim node; idempotent, so callers
  // that share a node name share a scope and a track.
  NodeObs Node(const std::string& name) {
    return NodeObs{&metrics_.scope(name), &tracer_, tracer_.Track(name),
                   &incidents_, prof::InternName(name)};
  }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  Incidents incidents_;
};

}  // namespace dufs::obs
