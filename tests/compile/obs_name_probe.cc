// Compile-only probe for the obs::Name gate (obs_name_probe.cmake). It is
// built once per shape with -DPROBE_<SHAPE>: each shape hands a metric key,
// span name or profiler frame name that is not a checked literal to the obs
// API and must fail to compile. With no shape defined, the control uses every
// accepted source of a name and must compile.
#include <string>

#include "obs/obs.h"
#include "obs/prof.h"

namespace probe {

using dufs::obs::MetricsRegistry;
using dufs::obs::Name;
using dufs::obs::NodeObs;
using dufs::obs::Scope;
using dufs::obs::Span;
namespace prof = dufs::prof;

// The OpScope shape: a Name parameter forwarded into a root span and a frame.
inline void Forward(const NodeObs& obs, Name name) {
  Span span = Span::Root(obs, name, "op");
  prof::ProfScope frame(name, prof::FrameKind::kOpClass);
}

// A free function that shares a registry method's name is not a lookup.
int counter(const std::string& key);

#if defined(PROBE_UPPER_SPAN)
void Probe(const NodeObs& obs) { Span span(obs, "ZK RPC", "zk"); }
#elif defined(PROBE_UPPER_COUNTER)
void Probe(const NodeObs& obs) { obs.counter("Zk.Requests").Inc(); }
#elif defined(PROBE_EMPTY_GAUGE)
void Probe(const NodeObs& obs) { obs.gauge("").Set(1); }
#elif defined(PROBE_CONCAT_KEY)
void Probe(Scope& scope, const std::string& phase) {
  scope.counter(("op." + phase + "_count").c_str()).Inc();
}
#elif defined(PROBE_STRING_TIMER)
void Probe(const NodeObs& obs, const std::string& key) {
  obs.timer(key).Record(1);
}
#elif defined(PROBE_RUNTIME_SPAN)
void Probe(const NodeObs& obs, const std::string& kind) {
  Span span(obs, ("zk-" + kind).c_str(), "zk");
}
#elif defined(PROBE_FORWARDED_SPAN)
void Probe(const NodeObs& obs, const char* name) { Span span(obs, name, "op"); }
#elif defined(PROBE_RUNTIME_PROF)
void Probe(const std::string& id) {
  prof::ProfScope frame(("node-" + id).c_str(), prof::FrameKind::kNode);
}
#elif defined(PROBE_UPPER_PROF)
void Probe() {
  prof::ProfScope frame("Engine Wheel", prof::FrameKind::kEnginePhase);
}
#else
void Probe(const NodeObs& obs, MetricsRegistry& reg, Scope* scope,
           const std::string& id) {
  obs.counter("zk.requests").Inc();
  scope->gauge("zk.read_queue").Set(1);
  reg.scope("a").histogram("op.stat_ns").Record(1);
  obs.timer("op.stat_ns").Record(1);
  Span span(obs, "zk-rpc", "zk");
  span.ArgInt("cache_hits", 1);
  span.ArgStr("path", "Free Text " + id);  // arg values are not names
  prof::ProfScope wheel("engine.wheel", prof::FrameKind::kEnginePhase);
  prof::ProfScope node(prof::InternName("client" + id),
                       prof::FrameKind::kNode);
  prof::ProfScope unattached(obs.prof_name, prof::FrameKind::kNode);
  Forward(obs, "stat");
  counter(id);
}
#endif

}  // namespace probe
