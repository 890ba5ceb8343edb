// Compile-only probe for the discard gate (discard_probe.cmake). It is built
// once per shape with -DPROBE_<SHAPE>: each shape drops a sim::Task, a
// sim::Future or a delay (sim.Delay, FifoServer::Serve) on the floor and
// must fail to compile under the project's -Werror=unused-result. A dropped
// Serve is worse than a no-op: the job holds its server without waiting.
// With no shape defined, the control holds, awaits and spawns the same
// values and must compile, which shows the include path and flags are sound.
#include <utility>

#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace probe {

using dufs::sim::FifoServer;
using dufs::sim::Future;
using dufs::sim::Simulation;
using dufs::sim::Task;

Task<void> Work(int n);
Future<int> Pending(Simulation& sim);

struct Actor {
  Task<void> Run();
  static Task<void> Make();
};

inline auto Wrap() { return Work(1); }
#define KICK(n) Work(n)
template <typename F>
auto Call(F f) {
  return f();
}

#if defined(PROBE_PLAIN)
void Probe() { Work(1); }
#elif defined(PROBE_MEMBER)
void Probe(Actor a) { a.Run(); }
#elif defined(PROBE_POINTER)
void Probe(Actor* a) { a->Run(); }
#elif defined(PROBE_STATIC)
void Probe() { Actor::Make(); }
#elif defined(PROBE_AUTO_WRAPPER)
void Probe() { Wrap(); }
#elif defined(PROBE_MACRO)
void Probe() { KICK(1); }
#elif defined(PROBE_TEMPLATE_WRAPPER)
void Probe() { Call([] { return Work(1); }); }
#elif defined(PROBE_LAMBDA)
void Probe() { []() -> Task<void> { co_return; }(); }
#elif defined(PROBE_FUTURE)
void Probe(Simulation& sim) { Pending(sim); }
#elif defined(PROBE_DELAY)
void Probe(Simulation& sim) { sim.Delay(1); }
#elif defined(PROBE_SERVE)
void Probe(FifoServer& server) { server.Serve(1); }
#else
Task<int> Probe(Simulation& sim, Actor* a, FifoServer* server) {
  Task<void> held = Work(1);
  co_await std::move(held);
  co_await a->Run();
  sim.Spawn(Actor::Make());
  co_await Wrap();
  co_await KICK(2);
  co_await Call([] { return Work(3); });
  co_await []() -> Task<void> { co_return; }();
  co_await sim.Delay(1);
  co_await server->Serve(1);
  co_return co_await Pending(sim);
}
#endif

}  // namespace probe
