// Lifetime probe: tests/compile/lifetime_probe.cmake runs this binary once
// per shape under ASan with detect_stack_use_after_return=1. Every shape is a
// coroutine lifetime bug on the repo's sim — a frame that outlives what it
// points at — and must abort with its named ASan report; the control does the
// same work safely and must run clean.
//
//   lifetime_probe <ref-capture|value-capture|this-capture|ref-escape|
//                   held-iterator|control>
#include <cstdio>
#include <map>
#include <string>

#include "sim/simulation.h"
#include "sim/task.h"

namespace {

using dufs::sim::Simulation;
using dufs::sim::Task;

int g_sink = 0;  // every read lands here, so none is optimized away

// Each shape's starter is noinline: its locals must sit in a frame of its
// own that returns before the spawned frame resumes, so a read of them is a
// use after *return* in every build type, not a use after scope in main.

// `[&x]` in a spawned lambda: `x` and the temporary closure die when the
// function returns, the frame reads them after its first suspension.
[[gnu::noinline]] void RefCapture(Simulation& sim) {
  int x = 1;
  sim.Spawn([&x, &sim]() -> Task<void> {
    co_await sim.Delay(1);
    g_sink += x;
  }());
}

// `[x]` by value in a temporary closure: the copy lives in the closure, not
// in the frame, so it dies with the full expression all the same.
[[gnu::noinline]] void ValueCapture(Simulation& sim) {
  int x = 2;
  Simulation* s = &sim;
  sim.Spawn([x, s]() -> Task<void> {
    co_await s->Delay(1);
    g_sink += x;
  }());
}

// `[this]`: the object outlives the frame, but the closure holding the
// pointer does not.
struct Counter {
  int n = 3;
  [[gnu::noinline]] void Start(Simulation& sim) {
    Simulation* s = &sim;
    sim.Spawn([this, s]() -> Task<void> {
      co_await s->Delay(1);
      g_sink += n;
    }());
  }
};

// `&local` escaping into a spawned frame.
Task<void> Bump(Simulation* sim, int* p) {
  co_await sim->Delay(1);
  *p += 1;
  g_sink += *p;
}
[[gnu::noinline]] void RefEscape(Simulation& sim) {
  int local = 4;
  sim.Spawn(Bump(&sim, &local));
}

// An iterator held across a co_await while another actor erases its entry.
std::map<int, std::string> g_table;

Task<void> ReadHeld(Simulation* sim) {
  auto it = g_table.find(1);
  co_await sim->Delay(2);
  // dufs-lint: allow(await-holding-ref) the bug this shape probes
  g_sink += static_cast<int>(it->second.size());
}
Task<void> Erase(Simulation* sim) {
  co_await sim->Delay(1);
  g_table.erase(1);
}
[[gnu::noinline]] void HeldIterator(Simulation& sim) {
  g_table[1] = "a value too long for the small-string buffer";
  sim.Spawn(ReadHeld(&sim));
  sim.Spawn(Erase(&sim));
}

// The same work done safely: state passed by value into the frame, and the
// entry looked up again after the suspension.
Task<void> Add(Simulation* sim, int x) {
  co_await sim->Delay(1);
  g_sink += x;
}
Task<void> ReadAfter(Simulation* sim) {
  co_await sim->Delay(2);
  const auto it = g_table.find(1);
  if (it != g_table.end()) g_sink += static_cast<int>(it->second.size());
}
[[gnu::noinline]] void Control(Simulation& sim) {
  int x = 5;
  sim.Spawn(Add(&sim, x));
  sim.Spawn([](Simulation* s, int v) -> Task<void> {
    co_await s->Delay(1);
    g_sink += v;
  }(&sim, x));
  g_table[1] = "a value too long for the small-string buffer";
  sim.Spawn(ReadAfter(&sim));
  sim.Spawn(Erase(&sim));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: lifetime_probe SHAPE\n");
    return 2;
  }
  const std::string shape = argv[1];
  Simulation sim;
  Counter counter;
  if (shape == "ref-capture") {
    RefCapture(sim);
  } else if (shape == "value-capture") {
    ValueCapture(sim);
  } else if (shape == "this-capture") {
    counter.Start(sim);
  } else if (shape == "ref-escape") {
    RefEscape(sim);
  } else if (shape == "held-iterator") {
    HeldIterator(sim);
  } else if (shape == "control") {
    Control(sim);
  } else {
    std::fprintf(stderr, "lifetime_probe: unknown shape %s\n", shape.c_str());
    return 2;
  }
  sim.Run();
  std::printf("%s ran clean (sink %d)\n", shape.c_str(), g_sink);
  return 0;
}
