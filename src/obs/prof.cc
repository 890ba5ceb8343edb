#include "obs/prof.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define DUFS_PROF_HAVE_ITIMER 1
#include <csignal>
#include <sys/time.h>
#endif

namespace dufs::prof {

namespace {

// --- sample ring (signal mode) -------------------------------------------
// SPSC: the signal handler is the producer, ordinary code the consumer.
// Monotonic 64-bit indices; capacity is a power of two. The slot array is
// allocated before the handler is armed and only ever reallocated while the
// profiler is stopped (same thread, so no handler can be mid-flight then).

struct Sample {
  std::uint32_t n;
  Frame frames[internal::kMaxDepth];
};

struct Ring {
  Sample* slots = nullptr;
  std::uint64_t cap = 0;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
};

Ring g_ring;
std::atomic<std::uint64_t> g_signals{0};
std::atomic<std::uint64_t> g_dropped{0};

// Off-signal state (ordinary code only).
std::uint64_t g_samples = 0;
std::uint64_t g_dispatches = 0;
std::uint64_t g_every = 0;
std::uint64_t g_tick_accum = 0;
std::uint64_t g_truncated_baseline = 0;  // truncations from before Start
const char* g_last_mode = "none";
bool g_handler_installed = false;

constexpr Frame kUnattributed{"unattributed", FrameKind::kEnginePhase};

#if DUFS_PROF_HAVE_ITIMER
// Async-signal-safe: reads the current thread's context array, writes one
// pre-allocated ring slot. No allocation, no locks, no library calls.
void SigprofHandler(int /*signum*/) {
  if (internal::g_mode.load(std::memory_order_relaxed) != internal::kSignal) {
    return;  // straggler after Stop(): the timer is disarmed, not the handler
  }
  g_signals.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = g_ring.head.load(std::memory_order_relaxed);
  if (h - g_ring.tail.load(std::memory_order_relaxed) >= g_ring.cap) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;  // overflow: counted, never blocks, never corrupts
  }
  const internal::ContextStack& c = internal::g_ctx;
  std::uint32_t d = c.depth.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  if (d > internal::kMaxDepth) d = internal::kMaxDepth;
  Sample& s = g_ring.slots[h & (g_ring.cap - 1)];
  s.n = d;
  for (std::uint32_t i = 0; i < d; ++i) s.frames[i] = c.frames[i];
  std::atomic_signal_fence(std::memory_order_release);
  g_ring.head.store(h + 1, std::memory_order_relaxed);
}
#endif

// --- stack trie -----------------------------------------------------------
// Keyed by (parent, name, kind) with strcmp name equality: identical
// literals from different TUs may have different addresses, and interned
// names must merge with equal literals.

struct TrieNode {
  const char* name;
  FrameKind kind;
  std::uint32_t parent;
  std::uint64_t self;
};

struct ChildKey {
  std::uint32_t parent;
  const char* name;
  std::uint8_t kind;
};

struct ChildKeyLess {
  bool operator()(const ChildKey& a, const ChildKey& b) const {
    if (a.parent != b.parent) return a.parent < b.parent;
    const int c = std::strcmp(a.name, b.name);
    if (c != 0) return c < 0;
    return a.kind < b.kind;
  }
};

// Function-local statics (leaked): the profiler must not run destructors at
// exit while a straggler signal could still fire.
std::vector<TrieNode>& Nodes() {
  static auto* v = new std::vector<TrieNode>{
      TrieNode{"", FrameKind::kEnginePhase, 0, 0}};  // [0] = root sentinel
  return *v;
}
std::map<ChildKey, std::uint32_t, ChildKeyLess>& Children() {
  static auto* m = new std::map<ChildKey, std::uint32_t, ChildKeyLess>();
  return *m;
}
std::vector<Snapshot*>& SnapshotPool() {
  static auto* v = new std::vector<Snapshot*>();
  return *v;
}

std::uint32_t InternTrieNode(std::uint32_t parent, const char* name,
                             FrameKind kind) {
  const ChildKey key{parent, name, static_cast<std::uint8_t>(kind)};
  auto [it, inserted] =
      Children().emplace(key, static_cast<std::uint32_t>(Nodes().size()));
  if (inserted) Nodes().push_back(TrieNode{name, kind, parent, 0});
  return it->second;
}

void FoldFrames(const Frame* frames, std::uint32_t n) {
  if (n == 0) {
    frames = &kUnattributed;
    n = 1;
  }
  std::uint32_t node = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    node = InternTrieNode(node, frames[i].name, frames[i].kind);
  }
  ++Nodes()[node].self;
  ++g_samples;
}

void FoldCurrentStack() {
  const internal::ContextStack& c = internal::g_ctx;
  FoldFrames(c.frames, c.depth.load(std::memory_order_relaxed));
}

// Children of `parent` in deterministic (name, kind) order — exactly the
// Children() map range for that parent.
template <typename Fn>
void ForEachChild(std::uint32_t parent, Fn&& fn) {
  auto& children = Children();
  for (auto it = children.lower_bound(ChildKey{parent, "", 0});
       it != children.end() && it->first.parent == parent; ++it) {
    fn(it->second);
  }
}

void AppendFolded(std::string* out, std::string* path, std::uint32_t node) {
  const std::size_t len = path->size();
  if (node != 0) {
    if (!path->empty()) *path += ';';
    *path += Nodes()[node].name;
    if (Nodes()[node].self > 0) {
      *out += *path;
      *out += ' ';
      *out += std::to_string(Nodes()[node].self);
      *out += '\n';
    }
  }
  ForEachChild(node, [&](std::uint32_t child) {
    AppendFolded(out, path, child);
  });
  path->resize(len);
}

}  // namespace

const char* FrameKindLabel(FrameKind kind) {
  switch (kind) {
    case FrameKind::kNode: return "node";
    case FrameKind::kOpClass: return "op";
    case FrameKind::kComponent: return "component";
    case FrameKind::kEnginePhase: return "engine";
  }
  return "unknown";
}

namespace internal {

Snapshot* CaptureSlow(ContextStack& c, std::uint32_t depth) {
  Snapshot* s;
  auto& pool = SnapshotPool();
  if (!pool.empty()) {
    s = pool.back();
    pool.pop_back();
  } else {
    s = new Snapshot();
  }
  const std::uint32_t floor = c.floor;
  s->n = depth - floor;
  for (std::uint32_t i = 0; i < s->n; ++i) s->frames[i] = c.frames[floor + i];
  return s;
}

void ReleaseSnapshot(Snapshot* s) { SnapshotPool().push_back(s); }

void DispatchTick() {
  ++g_dispatches;
  const int mode = g_mode.load(std::memory_order_relaxed);
  if (mode == kCount) {
    if (++g_tick_accum >= g_every) {
      g_tick_accum = 0;
      FoldCurrentStack();
    }
    return;
  }
  // Signal mode: opportunistic drain once the ring is half full, so a long
  // Run() cannot overflow it while the consumer sits idle.
  if (g_ring.cap != 0 &&
      g_ring.head.load(std::memory_order_relaxed) -
              g_ring.tail.load(std::memory_order_relaxed) >=
          g_ring.cap / 2) {
    DrainRing();
  }
}

}  // namespace internal

ResumeGuard::ResumeGuard(Snapshot* ctx, bool callback) {
  if (!internal::Active()) {
    // Profiler stopped between schedule and dispatch: only reclaim.
    FreeSnapshot(ctx);
    return;
  }
  internal::ContextStack& c = internal::g_ctx;
  saved_depth_ = c.depth.load(std::memory_order_relaxed);
  saved_floor_ = c.floor;
  ++c.generation;
  c.floor = saved_depth_;
  active_ = true;
  if (callback) {
    // Callback events carry no coroutine context; attribute them to the
    // engine under whatever outer (OS-stack) frames are visible.
    if (saved_depth_ < internal::kMaxDepth) {
      c.frames[saved_depth_] = Frame{"engine.callback", FrameKind::kEnginePhase};
      std::atomic_signal_fence(std::memory_order_release);
      c.depth.store(saved_depth_ + 1, std::memory_order_relaxed);
      c.floor = saved_depth_ + 1;
    } else {
      ++c.truncated;
    }
  } else if (ctx != nullptr) {
    // A scope can be both live below the floor (its OS frame spans Run())
    // and captured in the snapshot (the coroutine inherited it at spawn).
    // Skip the common prefix so such frames do not stack up twice.
    std::uint32_t skip = 0;
    while (skip < ctx->n && skip < c.floor &&
           c.frames[skip].kind == ctx->frames[skip].kind &&
           (c.frames[skip].name == ctx->frames[skip].name ||
            std::strcmp(c.frames[skip].name, ctx->frames[skip].name) == 0)) {
      ++skip;
    }
    std::uint32_t n = ctx->n - skip;
    if (c.floor + n > internal::kMaxDepth) {
      c.truncated += c.floor + n - internal::kMaxDepth;
      n = internal::kMaxDepth - c.floor;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      c.frames[c.floor + i] = ctx->frames[skip + i];
    }
    std::atomic_signal_fence(std::memory_order_release);
    c.depth.store(c.floor + n, std::memory_order_relaxed);
  }
  FreeSnapshot(ctx);
  internal::DispatchTick();
}

ResumeGuard::~ResumeGuard() {
  if (!active_) return;
  internal::ContextStack& c = internal::g_ctx;
  ++c.generation;
  c.floor = saved_floor_;
  c.depth.store(saved_depth_, std::memory_order_relaxed);
}

SpawnGuard::SpawnGuard() {
  internal::ContextStack& c = internal::g_ctx;
  saved_depth_ = c.depth.load(std::memory_order_relaxed);
  saved_floor_ = c.floor;
  ++c.generation;
  internal::DispatchTick();
}

SpawnGuard::~SpawnGuard() {
  internal::ContextStack& c = internal::g_ctx;
  ++c.generation;
  c.floor = saved_floor_;
  c.depth.store(saved_depth_, std::memory_order_relaxed);
}

bool Start(const Options& opts, std::string* error) {
  if (internal::g_mode.load(std::memory_order_relaxed) != internal::kOff) {
    if (error != nullptr) *error = "profiler already running";
    return false;
  }
  internal::ContextStack& c = internal::g_ctx;
  c.depth.store(0, std::memory_order_relaxed);
  c.floor = 0;
  ++c.generation;
  g_truncated_baseline = c.truncated;
  g_tick_accum = 0;
  if (opts.mode == Options::Mode::kCount) {
    if (opts.every == 0) {
      if (error != nullptr) *error = "count mode needs every >= 1";
      return false;
    }
    g_every = opts.every;
    g_last_mode = "count";
    internal::g_mode.store(internal::kCount, std::memory_order_relaxed);
    return true;
  }
#if DUFS_PROF_HAVE_ITIMER
  if (opts.hz < 1 || opts.hz > 100000) {
    if (error != nullptr) *error = "hz out of range [1, 100000]";
    return false;
  }
  std::uint64_t cap = 8;
  while (cap < opts.ring_slots) cap <<= 1;
  if (g_ring.slots == nullptr || g_ring.cap != cap) {
    delete[] g_ring.slots;  // safe: profiler stopped, timer disarmed
    g_ring.slots = new Sample[cap];
    g_ring.cap = cap;
  }
  g_ring.head.store(0, std::memory_order_relaxed);
  g_ring.tail.store(0, std::memory_order_relaxed);
  if (!g_handler_installed) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &SigprofHandler;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      if (error != nullptr) *error = "sigaction(SIGPROF) failed";
      return false;
    }
    g_handler_installed = true;  // stays installed; Stop only disarms
  }
  g_last_mode = "signal";
  internal::g_mode.store(internal::kSignal, std::memory_order_relaxed);
  const long usec = std::max(1L, 1000000L / opts.hz);
  itimerval tv{};
  tv.it_interval.tv_sec = usec / 1000000;
  tv.it_interval.tv_usec = usec % 1000000;
  tv.it_value = tv.it_interval;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    internal::g_mode.store(internal::kOff, std::memory_order_relaxed);
    if (error != nullptr) *error = "setitimer(ITIMER_PROF) failed";
    return false;
  }
  return true;
#else
  if (error != nullptr) *error = "signal profiler unavailable on this platform";
  return false;
#endif
}

void Stop() {
  const int mode = internal::g_mode.load(std::memory_order_relaxed);
  if (mode == internal::kOff) return;
#if DUFS_PROF_HAVE_ITIMER
  if (mode == internal::kSignal) {
    itimerval zero{};
    setitimer(ITIMER_PROF, &zero, nullptr);
  }
#endif
  internal::g_mode.store(internal::kOff, std::memory_order_relaxed);
  if (mode == internal::kSignal) DrainRing();
  internal::ContextStack& c = internal::g_ctx;
  c.depth.store(0, std::memory_order_relaxed);
  c.floor = 0;
  ++c.generation;
}

bool Running() {
  return internal::g_mode.load(std::memory_order_relaxed) != internal::kOff;
}

void Reset() {
  if (Running()) return;  // exports/stats of a live profile stay coherent
  Nodes().resize(1);
  Nodes()[0].self = 0;
  Children().clear();
  g_samples = 0;
  g_dispatches = 0;
  g_tick_accum = 0;
  g_signals.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_ring.tail.store(g_ring.head.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  internal::ContextStack& c = internal::g_ctx;
  g_truncated_baseline = c.truncated;
  g_last_mode = "none";
}

Stats GetStats() {
  Stats s;
  s.samples = g_samples;
  s.dropped = g_dropped.load(std::memory_order_relaxed);
  s.truncated = internal::g_ctx.truncated - g_truncated_baseline;
  s.dispatches = g_dispatches;
  s.signals = g_signals.load(std::memory_order_relaxed);
  return s;
}

void DrainRing() {
  if (g_ring.slots == nullptr) return;
  std::uint64_t t = g_ring.tail.load(std::memory_order_relaxed);
  const std::uint64_t h = g_ring.head.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  while (t != h) {
    const Sample& s = g_ring.slots[t & (g_ring.cap - 1)];
    FoldFrames(s.frames, s.n);
    ++t;
  }
  std::atomic_signal_fence(std::memory_order_release);
  g_ring.tail.store(t, std::memory_order_relaxed);
}

std::string ExportFolded() {
  std::string out;
  std::string path;
  AppendFolded(&out, &path, 0);
  return out;
}

std::string ExportDigestJson() {
  // Per-(name, kind) aggregation. self = trie self sum; total = samples with
  // the frame anywhere on the stack, counted once even when the name nests
  // within itself.
  struct Agg {
    std::uint64_t self = 0;
    std::uint64_t total = 0;
  };
  struct NameKey {
    const char* name;
    std::uint8_t kind;
  };
  struct NameKeyLess {
    bool operator()(const NameKey& a, const NameKey& b) const {
      const int c = std::strcmp(a.name, b.name);
      if (c != 0) return c < 0;
      return a.kind < b.kind;
    }
  };
  const auto& nodes = Nodes();
  // Subtree sums, child-before-parent (children have larger indices).
  std::vector<std::uint64_t> subtree(nodes.size(), 0);
  for (std::size_t i = nodes.size(); i-- > 1;) {
    subtree[i] += nodes[i].self;
    subtree[nodes[i].parent] += subtree[i];
  }
  std::map<NameKey, Agg, NameKeyLess> agg;
  // DFS counting a subtree into a name's total only at its topmost
  // occurrence on the path.
  struct Walker {
    const std::vector<TrieNode>& nodes;
    const std::vector<std::uint64_t>& subtree;
    std::map<NameKey, Agg, NameKeyLess>& agg;
    std::map<NameKey, int, NameKeyLess> on_path;
    void Walk(std::uint32_t node) {
      NameKey key{"", 0};
      if (node != 0) {
        key = NameKey{nodes[node].name,
                      static_cast<std::uint8_t>(nodes[node].kind)};
        Agg& a = agg[key];
        a.self += nodes[node].self;
        if (on_path[key]++ == 0) a.total += subtree[node];
      }
      ForEachChild(node, [&](std::uint32_t child) { Walk(child); });
      if (node != 0) --on_path[key];
    }
  } walker{nodes, subtree, agg, {}};
  walker.Walk(0);

  const Stats stats = GetStats();
  std::string out = "{\"mode\":\"";
  out += g_last_mode;
  out += "\",\"samples\":" + std::to_string(stats.samples);
  out += ",\"dropped\":" + std::to_string(stats.dropped);
  out += ",\"truncated\":" + std::to_string(stats.truncated);
  out += ",\"dispatches\":" + std::to_string(stats.dispatches);
  out += ",\"signals\":" + std::to_string(stats.signals);
  out += ",\"frames\":[";
  bool first = true;
  for (const auto& [key, a] : agg) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += key.name;  // literal/interned identifiers: no escaping needed
    out += "\",\"kind\":\"";
    out += FrameKindLabel(static_cast<FrameKind>(key.kind));
    out += "\",\"self\":" + std::to_string(a.self);
    out += ",\"total\":" + std::to_string(a.total);
    out += '}';
  }
  out += "]}";
  return out;
}

obs::Name InternName(const std::string& name) {
  static auto* names = new std::set<std::string>();
  return obs::Name(obs::Name::Interned{}, names->insert(name).first->c_str());
}

}  // namespace dufs::prof
