// dufsbench — the end-to-end metadata benchmark of this repository.
//
//   dufsbench --workload=NAME --seed=N [--seconds=S] [--trace=0|1]
//             [--scale=full|tiny] [--closed-loop] [--digest]
//
// One host process, one thread, drives 256 simulated processes through the
// public mdtest::Testbed / vfs::FuseMount API (README.md has the workload
// definitions, the metric list and the layer → metric map). The inputs —
// namespace, op streams, arrival times — are generated from --seed before
// anything runs; the system only ever sees the generated ops.
//
// A run simulates three windows, each with its own inputs derived from the
// seed, and pools their samples into the simulated metrics. It repeats
// "build the cluster, populate it, run a window" (cycling over the three)
// until --seconds of host time have passed; the host-time metrics come from
// those repetitions, and a repeated window must simulate exactly as before.
// Each window's first run is checked against the generator's namespace
// model, fsck and the replicas' fingerprints. With --trace=1 only window 0
// repeats, alternately untraced and with the span log on (tracestats
// decomposition → per-layer latency shares; traced vs untraced host time →
// the tracer's cost), then runs once more under the wall-clock profiler
// (host self time per layer).
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// A failed check prints {"correct":false,...,"metrics":{}} and exits 1.
// A human-readable report goes to stderr.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analyze.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/fsck.h"
#include "json.h"
#include "mdtest/testbed.h"
#include "obs/prof.h"
#include "sim/future.h"
#include "sim/gather.h"

using namespace dufs;
using mdtest::BackendKind;
using mdtest::Testbed;
using mdtest::TestbedConfig;

namespace {

// ---------------------------------------------------------------------------
// Small host-side helpers.

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host speed, measured alongside the workload. The host is a few cores of a
// shared machine, and other tenants slow this process by up to 40% for
// minutes at a time: every slice of a run alike, so no statistic over one
// run's samples removes it. A fixed reference task with the simulation's
// kind of work (hash-map inserts and erases with their allocations, a binary
// heap, a dependent walk over 8 MiB) runs for ~10 ms between measured
// stretches, and each measured CPU time is scaled by kRefMs ÷ the median of
// the task's last five timings. Host metrics then read as on a host where
// the task takes kRefMs. A change to the system moves the measured time and
// not the task, so it shows in full.
class SpeedProbe {
 public:
  static constexpr double kRefMs = 10;

  SpeedProbe() {
    cycle_.resize(std::size_t{1} << 21);
    // Sattolo's shuffle: one cycle through every entry.
    Rng rng(0x5eed9b0be5ull);
    for (std::size_t i = 0; i < cycle_.size(); ++i) {
      cycle_[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = cycle_.size() - 1; i > 0; --i) {
      std::swap(cycle_[i], cycle_[rng.NextBelow(i)]);
    }
    for (int i = 0; i < 4; ++i) Task();  // reach the map's steady size
  }

  // Runs the task now; returns the scale for CPU time measured near now.
  double Measure() {
    const double c = CpuSeconds();
    Task();
    last_cpu_ = CpuSeconds();
    recent_[count_++ % recent_.size()] = (last_cpu_ - c) * 1e3;
    const double ms = Median(std::vector<double>(
        recent_.begin(), recent_.begin() + std::min(count_, recent_.size())));
    scale_ = ms > 0 ? kRefMs / ms : 1.0;
    return scale_;
  }

  // The current scale, running the task first if 0.1 s of CPU has passed.
  double Scale() {
    return CpuSeconds() - last_cpu_ >= 0.1 ? Measure() : scale_;
  }

  // Memory the task holds, all of it touched, to leave out of peak_rss_mb.
  double MiB() const {
    return static_cast<double>(held_.bytes) / (1 << 20);
  }

 private:
  // Counts the bytes it hands out; all of the task's memory comes from it.
  struct Counted : std::pmr::memory_resource {
    std::size_t bytes = 0;
    void* do_allocate(std::size_t n, std::size_t align) override {
      bytes += n;
      return std::pmr::new_delete_resource()->allocate(n, align);
    }
    void do_deallocate(void* p, std::size_t n, std::size_t align) override {
      bytes -= n;
      std::pmr::new_delete_resource()->deallocate(p, n, align);
    }
    bool do_is_equal(const memory_resource& o) const noexcept override {
      return this == &o;
    }
  };

  void Task() {
    constexpr int kOps = 60000;
    constexpr std::uint64_t kKeys = 1 << 16;
    for (int i = 0; i < kOps; ++i) {
      x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t key = (x_ >> 33) % kKeys;
      if ((x_ >> 63) != 0) {
        map_[key] += static_cast<std::uint64_t>(i);
      } else {
        map_.erase(key);
      }
      heap_.push(x_ >> 16);
      if (heap_.size() > 4096) heap_.pop();
      at_ = cycle_[at_];
    }
  }

  Counted held_;
  std::pmr::vector<std::uint32_t> cycle_{&held_};
  // The map's nodes come from a pool of their own, which keeps the blocks it
  // once had: after warm-up the task allocates nothing from the heap the
  // system uses, so it does not fragment that heap.
  std::pmr::unsynchronized_pool_resource pool_{&held_};
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> map_{&pool_};
  std::priority_queue<std::uint64_t, std::pmr::vector<std::uint64_t>> heap_{
      std::less<std::uint64_t>(), std::pmr::vector<std::uint64_t>(&pool_)};
  std::uint64_t x_ = 1;
  std::uint32_t at_ = 0;
  std::array<double, 5> recent_{};
  std::size_t count_ = 0;
  double last_cpu_ = -1e9;
  double scale_ = 1.0;
};

// Host CPU time and simulated events of one slice of a window, with the
// SpeedProbe scale in force while it ran.
struct Slice {
  double host_s = 0;
  std::uint64_t events = 0;
  double scale = 1.0;
};

// Scaled host ns per simulated event at which half of the slices' events ran
// faster and half slower. Another tenant's burst slows only the slices it
// overlaps, so this holds where a sum or mean of the run would not.
double MedianNsPerEvent(std::vector<Slice> slices) {
  std::erase_if(slices, [](const Slice& x) { return x.events == 0; });
  if (slices.empty()) return 0;
  auto cost = [](const Slice& x) {
    return x.host_s * x.scale * 1e9 / static_cast<double>(x.events);
  };
  std::sort(slices.begin(), slices.end(),
            [&](const Slice& a, const Slice& b) { return cost(a) < cost(b); });
  std::uint64_t total = 0;
  for (const Slice& x : slices) total += x.events;
  std::uint64_t seen = 0;
  for (const Slice& x : slices) {
    seen += x.events;
    if (2 * seen >= total) return cost(x);
  }
  return cost(slices.back());
}

// Exact nearest-rank percentile of raw samples (ns) in microseconds.
template <typename T>
double PercentileUs(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return static_cast<double>(v[rank - 1]) / 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Layer timings report means where a median would sit on an uncontended
// path whose simulated cost is the same constant on every run.
double MeanUs(const std::vector<std::int64_t>& v) {
  double sum = 0;
  for (auto x : v) sum += static_cast<double>(x);
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size()) / 1e3;
}

// ---------------------------------------------------------------------------
// Generated inputs.

enum class Kind : std::uint8_t {
  kStat, kReadDir, kMkdir, kMknod, kUnlink, kRmdir, kRename, kCount
};
constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
constexpr const char* kKindName[kKinds] = {"stat",   "readdir", "mkdir",
                                           "mknod",  "unlink",  "rmdir",
                                           "rename"};
// The DufsClient op class (root span / op.<class>_ns timer) behind each FUSE
// call; rmdir has none.
constexpr const char* kKindClass[kKinds] = {"stat",   "readdir", "mkdir",
                                            "create", "unlink",  nullptr,
                                            "rename"};
bool IsRead(Kind k) { return k == Kind::kStat || k == Kind::kReadDir; }
std::size_t Idx(Kind k) { return static_cast<std::size_t>(k); }

struct Op {
  Kind kind = Kind::kStat;
  std::int8_t expect_dir = -1;       // stat: 1 directory, 0 file
  std::int32_t expect_entries = -1;  // readdir: exact count; -1 = >= min
  std::int32_t min_entries = 0;
  double due = 0;                    // open loop: arrival, ns into window
  double think = 0;                  // closed loop: ns before issuing
  std::int32_t after = -1;           // open loop: op of this process that
                                     // must finish first (same entry)
  std::string path;
  std::string path2;                 // rename target
};

// Everything a workload is: the cluster, the pre-populated namespace, the
// per-process op streams, and the namespace model the run is checked
// against afterwards.
struct Plan {
  TestbedConfig config;
  bool open_loop = false;
  double rate = 0;  // open loop: arrivals per simulated second
  std::vector<std::vector<std::string>> dir_levels;  // parents first
  std::vector<std::string> files;
  std::vector<std::vector<Op>> procs;
  std::vector<std::pair<std::string, bool>> present;  // path, is_dir
  std::vector<std::string> absent;
  std::vector<std::pair<std::string, std::int32_t>> children;
  // The window runs in slices of this much simulated time, each timed on the
  // host (about a hundred per window).
  sim::Duration slice = 20 * sim::kMillisecond;
};

// FNV-1a over the generated inputs; the self-test compares it across seeds.
std::uint64_t PlanDigest(const Plan& plan) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xff) * 1099511628211ull;
  };
  for (const auto& level : plan.dir_levels) for (const auto& d : level) mix(d);
  for (const auto& f : plan.files) mix(f);
  for (const auto& ops : plan.procs) {
    for (const Op& op : ops) {
      mix(kKindName[Idx(op.kind)]);
      mix(op.path);
      mix(op.path2);
      mix(std::to_string(op.due));
      mix(std::to_string(op.think));
    }
  }
  return h;
}

std::string Hex(Rng& rng, int digits) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (int i = 0; i < digits; ++i) s += kDigits[rng.NextBelow(16)];
  return s;
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// Rank-frequency Zipf over n items (rank 0 hottest).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Draw(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Independent simulated windows per run. mixed-pvfs-open gets more: its
// write tail comes from queue excursions, which several short windows sample
// more steadily than one long one.
std::size_t WindowsFor(const std::string& workload) {
  return workload == "mixed-pvfs-open" ? 6 : 3;
}
constexpr std::size_t kMinSetups = 25;  // set-up samples behind setup_s, unless
constexpr double kSetupShare = 0.3;     // they cost more than this × --seconds
constexpr std::size_t kMaxReps = 25;
// Repetitions also stop at this × --seconds of wall time, so a host busy
// with other work, where CPU time runs slower than the clock, still ends
// the run in time.
constexpr double kWallShare = 3.0;
// --trace=1: untraced and traced runs of window 0 behind the tracer's cost.
constexpr std::size_t kMinTracedReps = 3;

struct Scale {
  bool tiny = false;
  std::size_t procs() const { return tiny ? 8 : 256; }
};

Op MakeOp(Kind kind, std::string path, std::string path2 = {}) {
  Op op;
  op.kind = kind;
  op.path = std::move(path);
  op.path2 = std::move(path2);
  return op;
}

Op StatOp(std::string path, bool is_dir) {
  Op op = MakeOp(Kind::kStat, std::move(path));
  op.expect_dir = is_dir ? 1 : 0;
  return op;
}

// create-storm: the mdtest -u cycle at paper scale. Each process, in its own
// directory: mkdir → mknod k → stat each once → unlink each → rmdir, twice.
Plan CreateStorm(std::uint64_t seed, Scale scale) {
  Plan plan;
  plan.config.seed = seed;
  plan.config.zk_servers = 8;
  plan.config.client_nodes = scale.tiny ? 2 : 8;
  plan.config.backend = BackendKind::kLustre;
  plan.config.backend_instances = 2;
  const std::size_t procs = scale.procs();
  // Files per cycle vary per process and cycle (mean 8, 4 at tiny scale).
  const std::int64_t min_files = scale.tiny ? 2 : 6;
  const std::size_t cycles = 2;
  Rng rng(seed ^ 0xc5ea7e5700000001ull);
  plan.dir_levels = {{"/storm"}};
  plan.procs.resize(procs);
  for (std::size_t p = 0; p < procs; ++p) {
    auto& ops = plan.procs[p];
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::string dir =
          "/storm/p" + std::to_string(p) + "c" + std::to_string(c);
      std::vector<std::string> names;
      const auto files = rng.NextInRange(min_files, min_files + 4);
      for (std::int64_t i = 0; i < files; ++i) {
        names.push_back(dir + "/f" + std::to_string(i) + "_" + Hex(rng, 6));
      }
      ops.push_back(MakeOp(Kind::kMkdir, dir));
      for (const auto& f : names) ops.push_back(MakeOp(Kind::kMknod, f));
      Shuffle(names, rng);
      for (const auto& f : names) ops.push_back(StatOp(f, false));
      Shuffle(names, rng);
      for (const auto& f : names) ops.push_back(MakeOp(Kind::kUnlink, f));
      ops.push_back(MakeOp(Kind::kRmdir, dir));
      plan.absent.push_back(dir);
      if (p < 4) plan.absent.insert(plan.absent.end(), names.begin(), names.end());
    }
  }
  plan.present.emplace_back("/storm", true);
  plan.children.emplace_back("/storm", 0);
  return plan;
}

// stat-zipf: a ~30k-entry tree, 4-8 components deep, read through a seeded
// Zipf popularity ranking; 1% churn in per-process private directories.
constexpr double kZipfExponent = 0.9;

Plan StatZipf(std::uint64_t seed, Scale scale) {
  Plan plan;
  plan.config.seed = seed;
  plan.config.zk_servers = 8;
  plan.config.client_nodes = scale.tiny ? 2 : 8;
  plan.config.backend = BackendKind::kLustre;
  plan.config.backend_instances = 2;
  plan.slice = 2 * sim::kMillisecond;
  const std::size_t procs = scale.procs();
  const std::size_t fanout = scale.tiny ? 2 : 4;
  const std::size_t max_depth = scale.tiny ? 6 : 8;  // path components
  const std::size_t ops_per_proc = scale.tiny ? 40 : 256;
  Rng rng(seed ^ 0x5a7f1b0000000002ull);

  struct Dir {
    std::string path;
    std::size_t depth;
    std::int32_t children;
  };
  std::vector<Dir> dirs;
  std::vector<std::string> file_paths;
  std::vector<std::string> level{"/z"};
  plan.dir_levels.push_back({"/z", "/zp"});
  dirs.push_back({"/z", 1, static_cast<std::int32_t>(fanout)});
  for (std::size_t depth = 2; depth <= max_depth; ++depth) {
    std::vector<std::string> next;
    for (const auto& parent : level) {
      for (std::size_t j = 0; j < fanout; ++j) {
        next.push_back(parent + "/d" + std::to_string(j));
      }
      if (depth == max_depth) {
        for (int j = 0; j < 2; ++j) {
          file_paths.push_back(parent + "/f" + std::to_string(j));
        }
      }
    }
    const std::int32_t kids =
        depth == max_depth ? 0
                           : static_cast<std::int32_t>(
                                 fanout + (depth + 1 == max_depth ? 2 : 0));
    for (const auto& d : next) dirs.push_back({d, depth, kids});
    plan.dir_levels.push_back(next);
    level = std::move(next);
  }
  for (std::size_t p = 0; p < procs; ++p) {
    plan.dir_levels[1].push_back("/zp/p" + std::to_string(p));
  }
  plan.files = file_paths;

  // Popularity: each client node ranks every target set by its own seeded
  // permutation and draws by Zipf rank. A node's cache sees a skewed stream;
  // the cluster's load does not hinge on which few entries one ranking put
  // on top.
  struct Ranking {
    std::vector<const Dir*> stat_dirs, list_dirs;
    std::vector<const std::string*> files;
  };
  Ranking base;
  for (const Dir& d : dirs) {
    if (d.depth >= 4) base.stat_dirs.push_back(&d);
    if (d.depth >= 4 && d.depth < max_depth) base.list_dirs.push_back(&d);
  }
  for (const auto& f : file_paths) base.files.push_back(&f);
  std::vector<Ranking> rankings(plan.config.client_nodes, base);
  for (Ranking& r : rankings) {
    Shuffle(r.stat_dirs, rng);
    Shuffle(r.list_dirs, rng);
    Shuffle(r.files, rng);
  }
  const Zipf zipf_dirs(base.stat_dirs.size(), kZipfExponent);
  const Zipf zipf_list(base.list_dirs.size(), kZipfExponent);
  const Zipf zipf_files(base.files.size(), kZipfExponent);

  plan.procs.resize(procs);
  for (std::size_t p = 0; p < procs; ++p) {
    const std::string home = "/zp/p" + std::to_string(p);
    int churn_state = 0;
    std::size_t churn_n = 0;
    std::string live;
    auto& ops = plan.procs[p];
    const Ranking& rank = rankings[p % rankings.size()];
    for (std::size_t i = 0; i < ops_per_proc; ++i) {
      const double u = rng.NextDouble();
      if (u < 0.71) {
        ops.push_back(StatOp(rank.stat_dirs[zipf_dirs.Draw(rng)]->path, true));
      } else if (u < 0.91) {
        const Dir* d = rank.list_dirs[zipf_list.Draw(rng)];
        Op op = MakeOp(Kind::kReadDir, d->path);
        op.expect_entries = d->children;
        ops.push_back(std::move(op));
      } else if (u < 0.99) {
        ops.push_back(StatOp(*rank.files[zipf_files.Draw(rng)], false));
      } else {
        // Churn cycles create file → unlink it → mkdir → rmdir it.
        switch (churn_state) {
          case 0:
            live = home + "/f" + std::to_string(churn_n);
            ops.push_back(MakeOp(Kind::kMknod, live));
            break;
          case 1:
            ops.push_back(MakeOp(Kind::kUnlink, live));
            plan.absent.push_back(live);
            break;
          case 2:
            live = home + "/d" + std::to_string(churn_n);
            ops.push_back(MakeOp(Kind::kMkdir, live));
            break;
          case 3:
            ops.push_back(MakeOp(Kind::kRmdir, live));
            plan.absent.push_back(live);
            ++churn_n;
            break;
        }
        churn_state = (churn_state + 1) % 4;
      }
    }
    const bool holds = churn_state == 1 || churn_state == 3;
    if (holds) plan.present.emplace_back(live, churn_state == 3);
    plan.present.emplace_back(home, true);
    plan.children.emplace_back(home, holds ? 1 : 0);
  }
  // Model sample: a seeded slice of the static tree.
  const std::size_t sample = scale.tiny ? 16 : 512;
  for (std::size_t i = 0; i < sample; ++i) {
    const Dir& d = dirs[rng.NextBelow(dirs.size())];
    plan.present.emplace_back(d.path, true);
    plan.present.emplace_back(file_paths[rng.NextBelow(file_paths.size())],
                              false);
    if (d.children > 0) plan.children.emplace_back(d.path, d.children);
  }
  return plan;
}

// mixed-pvfs-open: Poisson arrivals over 256 processes on a 2k-entry shared
// namespace. The arrival rate is ~70% of this mix's closed-loop saturation
// throughput on the seed commit (`--closed-loop` measures it).
constexpr double kMixedRate = 450.0;  // arrivals per simulated second

Plan MixedPvfsOpen(std::uint64_t seed, Scale scale) {
  Plan plan;
  plan.config.seed = seed;
  plan.config.zk_servers = 4;
  plan.config.client_nodes = scale.tiny ? 2 : 8;
  plan.config.backend = BackendKind::kPvfs;
  plan.config.backend_instances = 2;
  plan.open_loop = true;
  plan.slice = 250 * sim::kMillisecond;
  const std::size_t procs = scale.procs();
  const std::size_t shared_dirs = scale.tiny ? 4 : 16;
  const std::size_t static_files = scale.tiny ? 8 : 64;
  const std::size_t own_initial = 4;
  const std::size_t total_ops = scale.tiny ? 400 : 12800;
  plan.rate = kMixedRate * static_cast<double>(procs) / 256.0;
  Rng rng(seed ^ 0x3f1ed0be00000003ull);

  auto shared = [](std::size_t j) { return "/mix/d" + std::to_string(j); };
  plan.dir_levels = {{"/mix"}, {}};
  std::vector<std::int32_t> entries(shared_dirs,
                                    static_cast<std::int32_t>(static_files));
  std::vector<std::pair<std::string, bool>> targets;  // stat targets
  for (std::size_t j = 0; j < shared_dirs; ++j) {
    plan.dir_levels[1].push_back(shared(j));
    targets.emplace_back(shared(j), true);
    for (std::size_t k = 0; k < static_files; ++k) {
      plan.files.push_back(shared(j) + "/s" + std::to_string(k));
      targets.emplace_back(plan.files.back(), false);
    }
  }

  struct Own {
    std::string path;
    std::size_t dir;
    std::int32_t last = -1;  // the process's latest op on this entry
  };
  struct ProcState {
    std::vector<Own> files;
    std::optional<Own> subdir;
    std::size_t next = 0;
  };
  std::vector<ProcState> state(procs);
  auto fresh = [&](std::size_t p, const char* tag) {
    const std::size_t j = rng.NextBelow(shared_dirs);
    return Own{shared(j) + "/p" + std::to_string(p) + tag +
                   std::to_string(state[p].next++),
               j};
  };
  for (std::size_t p = 0; p < procs; ++p) {
    for (std::size_t i = 0; i < own_initial; ++i) {
      Own f = fresh(p, "_");
      plan.files.push_back(f.path);
      ++entries[f.dir];
      state[p].files.push_back(std::move(f));
    }
  }

  plan.procs.resize(procs);
  double t = 0;
  for (std::size_t n = 0; n < total_ops; ++n) {
    t += -std::log(1.0 - rng.NextDouble()) / plan.rate;
    const std::size_t p = rng.NextBelow(procs);
    ProcState& st = state[p];
    const auto index = static_cast<std::int32_t>(plan.procs[p].size());
    Op op;
    const double u = rng.NextDouble();
    if (u < 0.50) {
      // Dirs are 1 in 65 targets; weight them to ~20% of stats.
      const bool dir = rng.NextDouble() < 0.2;
      const std::size_t j = rng.NextBelow(shared_dirs);
      op = dir ? StatOp(shared(j), true)
               : StatOp(plan.files[j * static_files +
                                   rng.NextBelow(static_files)],
                        false);
    } else if (u < 0.60) {
      op = MakeOp(Kind::kReadDir, shared(rng.NextBelow(shared_dirs)));
      op.min_entries = static_cast<std::int32_t>(static_files);
    } else if (u < 0.95 && !st.files.empty() && u >= 0.75) {
      const std::size_t i = rng.NextBelow(st.files.size());
      Own victim = st.files[i];
      st.files.erase(st.files.begin() + static_cast<std::ptrdiff_t>(i));
      --entries[victim.dir];
      plan.absent.push_back(victim.path);
      if (u < 0.90) {
        op = MakeOp(Kind::kUnlink, victim.path);
      } else {
        Own to = fresh(p, "_");
        to.last = index;
        op = MakeOp(Kind::kRename, victim.path, to.path);
        ++entries[to.dir];
        st.files.push_back(std::move(to));
      }
      op.after = victim.last;
    } else if (u < 0.95) {
      // create (an unlink or rename with nothing to act on becomes one)
      Own f = fresh(p, "_");
      f.last = index;
      op = MakeOp(Kind::kMknod, f.path);
      ++entries[f.dir];
      st.files.push_back(std::move(f));
    } else if (st.subdir) {
      op = MakeOp(Kind::kRmdir, st.subdir->path);
      op.after = st.subdir->last;
      plan.absent.push_back(st.subdir->path);
      --entries[st.subdir->dir];
      st.subdir.reset();
    } else {
      Own d = fresh(p, "_s");
      d.last = index;
      op = MakeOp(Kind::kMkdir, d.path);
      ++entries[d.dir];
      st.subdir = std::move(d);
    }
    op.due = t * 1e9;
    plan.procs[p].push_back(std::move(op));
  }
  plan.present = targets;
  plan.present.emplace_back("/mix", true);
  for (const auto& st : state) {
    for (const auto& f : st.files) plan.present.emplace_back(f.path, false);
    if (st.subdir) plan.present.emplace_back(st.subdir->path, true);
  }
  for (std::size_t j = 0; j < shared_dirs; ++j) {
    plan.children.emplace_back(shared(j), entries[j]);
  }
  return plan;
}

// Closed-loop processes pause between ops, as mdtest's own loop does: an
// exponential think time with this mean. Issue times are therefore real-valued
// like open-loop arrivals, and latency is measured from them.
constexpr double kThinkMeanNs = 1000.0;

std::optional<Plan> MakePlan(const std::string& workload, std::uint64_t seed,
                             Scale scale) {
  std::optional<Plan> plan;
  if (workload == "create-storm") plan = CreateStorm(seed, scale);
  if (workload == "stat-zipf") plan = StatZipf(seed, scale);
  if (workload == "mixed-pvfs-open") plan = MixedPvfsOpen(seed, scale);
  if (plan) {
    Rng rng(seed ^ 0x7417e0000000004ull);
    for (auto& ops : plan->procs) {
      for (Op& op : ops) {
        op.think = -std::log(1.0 - rng.NextDouble()) * kThinkMeanNs;
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Driving the cluster.

vfs::FuseMount& Mount(Testbed& tb, std::size_t proc) {
  return *tb.client(proc % tb.client_count()).fuse;
}

// Creates `paths` from `workers` concurrent processes; counts failures.
sim::Task<void> CreateWorker(Testbed& tb, const std::vector<std::string>& paths,  // dufs-lint: allow(coro-ref-param)
                             std::size_t worker, std::size_t workers,
                             bool dirs, std::size_t& errors) {
  vfs::FuseMount& fs = Mount(tb, worker);
  for (std::size_t i = worker; i < paths.size(); i += workers) {
    // Two statements: GCC mis-destroys a co_await result inside ?:.
    Status st = Status::Ok();
    if (dirs) {
      st = co_await fs.Mkdir(paths[i]);
    } else {
      st = co_await fs.Mknod(paths[i]);
    }
    if (!st.ok()) ++errors;
  }
}

sim::Task<void> Populate(Testbed& tb, const Plan& plan, std::size_t workers,  // dufs-lint: allow(coro-ref-param)
                         std::size_t& errors) {
  auto wave = [&](const std::vector<std::string>& paths, bool dirs) {
    std::vector<sim::Task<void>> tasks;
    for (std::size_t w = 0; w < std::min(workers, paths.size()); ++w) {
      tasks.push_back(CreateWorker(tb, paths, w, workers, dirs, errors));
    }
    return sim::WhenAll(std::move(tasks));
  };
  for (const auto& level : plan.dir_levels) co_await wave(level, true);
  co_await wave(plan.files, false);
}

// Lets in-flight replication and RPC timers settle (followers apply their
// commits), so a window starts and a check runs on a quiet cluster.
void Quiesce(Testbed& tb) { tb.sim().Run(tb.sim().now() + sim::Sec(5)); }

std::unique_ptr<Testbed> BuildCluster(const Plan& plan) {
  auto tb = std::make_unique<Testbed>(plan.config);
  tb->MountAll();
  std::size_t errors = 0;
  sim::RunTask(tb->sim(), Populate(*tb, plan, plan.procs.size(), errors));
  Quiesce(*tb);
  if (errors != 0) {
    std::fprintf(stderr, "setup: %zu namespace creates failed\n", errors);
    std::exit(1);
  }
  return tb;
}

// The registry's histograms and gauge watermarks accumulate from cluster
// birth; a window's percentiles and queue maxima must not include set-up.
// Cells are owned by the registry and stay valid; only their contents reset.
void ResetWindowMetrics(obs::MetricsRegistry& registry) {
  for (const auto& [node, scope] : registry.scopes()) {
    for (const auto& [key, cell] : scope->histograms()) {
      cell->hist = LatencyHistogram();
    }
    for (const auto& [key, cell] : scope->gauges()) {
      cell->max = cell->value;
      cell->min = cell->value;
      cell->min_seen = false;
    }
  }
}

// Public counters of every layer, read before and after a window.
struct Counters {
  std::uint64_t events = 0, messages = 0, rpc_calls = 0, zk_requests = 0,
                zk_failovers = 0, zk_reads = 0, zk_writes = 0,
                cache_hits = 0, cache_misses = 0, cache_evictions = 0,
                cache_invalidations = 0, fuse_ops = 0, lustre_ops = 0,
                zk_compound = 0;

  static Counters Read(Testbed& tb) {
    Counters c;
    c.events = tb.sim().events_processed();
    const auto merged = tb.obs().metrics().Merged();
    if (const auto it = merged.counters.find("zk.compound_ops");
        it != merged.counters.end()) {
      c.zk_compound = it->second;
    }
    c.messages = tb.net().messages_delivered();
    for (std::size_t i = 0; i < tb.client_count(); ++i) {
      auto& node = tb.client(i);
      c.rpc_calls += node.endpoint->calls_sent();
      c.zk_requests += node.zk->requests_sent();
      c.zk_failovers += node.zk->failovers();
      const auto& s = node.dufs->meta_cache().stats();
      c.cache_hits += s.hits;
      c.cache_misses += s.misses;
      c.cache_evictions += s.evictions;
      c.cache_invalidations += s.invalidations;
      c.fuse_ops += node.fuse->ops_dispatched();
    }
    for (std::size_t i = 0; i < tb.zk_server_count(); ++i) {
      c.zk_reads += tb.zk_server(i).reads_served();
      c.zk_writes += tb.zk_server(i).writes_committed();
    }
    for (std::size_t i = 0; tb.lustre(i) != nullptr; ++i) {
      c.lustre_ops += tb.lustre(i)->mds().ops_served();
    }
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    d.events = events - o.events;
    d.messages = messages - o.messages;
    d.rpc_calls = rpc_calls - o.rpc_calls;
    d.zk_requests = zk_requests - o.zk_requests;
    d.zk_failovers = zk_failovers - o.zk_failovers;
    d.zk_reads = zk_reads - o.zk_reads;
    d.zk_writes = zk_writes - o.zk_writes;
    d.cache_hits = cache_hits - o.cache_hits;
    d.cache_misses = cache_misses - o.cache_misses;
    d.cache_evictions = cache_evictions - o.cache_evictions;
    d.cache_invalidations = cache_invalidations - o.cache_invalidations;
    d.fuse_ops = fuse_ops - o.fuse_ops;
    d.lustre_ops = lustre_ops - o.lustre_ops;
    d.zk_compound = zk_compound - o.zk_compound;
    return d;
  }
};

struct ProcOut {
  std::vector<double> lat[kKinds];  // per kind, ns from the op's due time
  std::int64_t service_ns[2] = {0, 0};  // FUSE call → return, rmdir excluded
  std::array<std::uint64_t, kKinds> kinds{};
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t late = 0;
  std::vector<std::pair<double, double>> busy;  // (due, done) in ns
  std::string first_problem;
};

// Issues one op through the process's FUSE mount and records it. `due` is
// when the op was due (closed loop: when it was issued).
sim::Task<void> Execute(Testbed& tb, const Op& op, std::size_t proc,  // dufs-lint: allow(coro-ref-param)
                        double due, ProcOut& out) {
  auto& sim = tb.sim();
  vfs::FuseMount& fs = Mount(tb, proc);
  const sim::SimTime start = sim.now();
  Status st = Status::Ok();
  bool match = true;
  switch (op.kind) {
    case Kind::kStat: {
      auto r = co_await fs.Stat(op.path);
      st = r.status();
      if (r.ok() && op.expect_dir >= 0) {
        match = r->IsDir() == (op.expect_dir == 1);
      }
      break;
    }
    case Kind::kReadDir: {
      auto r = co_await fs.ReadDir(op.path);
      st = r.status();
      if (r.ok()) {
        const auto n = static_cast<std::int32_t>(r->size());
        match = op.expect_entries >= 0 ? n == op.expect_entries
                                       : n >= op.min_entries;
      }
      break;
    }
    case Kind::kMkdir: st = co_await fs.Mkdir(op.path); break;
    case Kind::kMknod: st = co_await fs.Mknod(op.path); break;
    case Kind::kUnlink: st = co_await fs.Unlink(op.path); break;
    case Kind::kRmdir: st = co_await fs.Rmdir(op.path); break;
    case Kind::kRename: st = co_await fs.Rename(op.path, op.path2); break;
    case Kind::kCount: break;
  }
  const sim::SimTime end = sim.now();
  const int w = IsRead(op.kind) ? 0 : 1;
  out.lat[Idx(op.kind)].push_back(static_cast<double>(end) - due);
  if (op.kind != Kind::kRmdir) out.service_ns[w] += end - start;
  ++out.kinds[Idx(op.kind)];
  out.busy.emplace_back(due, static_cast<double>(end));
  if (!st.ok() || !match) {
    if (!st.ok()) ++out.failed; else ++out.mismatched;
    if (out.first_problem.empty()) {
      out.first_problem = std::string(kKindName[Idx(op.kind)]) + " " +
                          op.path + ": " +
                          (st.ok() ? "unexpected result" : st.ToString());
    }
  }
}

// Closed loop: each process issues its next op when the previous returns.
sim::Task<void> RunProc(Testbed& tb, const std::vector<Op>& ops,  // dufs-lint: allow(coro-ref-param)
                        std::size_t proc, ProcOut& out) {
  auto& sim = tb.sim();
  for (const Op& op : ops) {
    const double issue = static_cast<double>(sim.now()) + op.think;
    const auto at = static_cast<sim::SimTime>(std::ceil(issue));
    if (sim.now() < at) co_await sim.Delay(at - sim.now());
    co_await Execute(tb, op, proc, issue, out);
  }
}

// Open loop: every op is issued at its due time, whatever else is in flight;
// it waits only for the earlier op of its process on the same entry (an
// unlink for its create), so no generated op can fail.
struct OpenLoop {
  struct Gate {
    bool done = false;
    sim::Promise<bool> waiter;
  };
  std::vector<std::vector<Gate>> gates;  // [proc][op]
  std::size_t remaining = 0;
  sim::Promise<bool> all_done;
};

sim::Task<void> OpenOp(Testbed& tb, const Plan& plan, std::size_t proc,  // dufs-lint: allow(coro-ref-param)
                       std::size_t i, double due, OpenLoop& loop,
                       ProcOut& out) {
  const Op& op = plan.procs[proc][i];
  if (op.after >= 0) {
    auto& dep = loop.gates[proc][static_cast<std::size_t>(op.after)];
    if (!dep.done) {
      ++out.late;
      auto [future, promise] = sim::MakeFuture<bool>(tb.sim());
      dep.waiter = promise;
      co_await std::move(future);
    }
  }
  co_await Execute(tb, op, proc, due, out);
  auto& gate = loop.gates[proc][i];
  gate.done = true;
  if (gate.waiter.valid()) gate.waiter.Set(true);
  if (--loop.remaining == 0) loop.all_done.Set(true);
}

sim::Task<void> RunOpen(Testbed& tb, const Plan& plan,  // dufs-lint: allow(coro-ref-param)
                        std::vector<ProcOut>& outs, sim::SimTime t0) {
  auto& sim = tb.sim();
  OpenLoop loop;
  std::vector<std::tuple<double, std::size_t, std::size_t>> arrivals;
  for (std::size_t p = 0; p < plan.procs.size(); ++p) {
    loop.gates.emplace_back(plan.procs[p].size());
    for (std::size_t i = 0; i < plan.procs[p].size(); ++i) {
      arrivals.emplace_back(plan.procs[p][i].due, p, i);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  loop.remaining = arrivals.size();
  if (arrivals.empty()) co_return;
  auto [finished, all_done] = sim::MakeFuture<bool>(sim);
  loop.all_done = all_done;
  for (const auto& [offset, p, i] : arrivals) {
    // Dispatch at the first simulated nanosecond at or after the due time.
    const double due = static_cast<double>(t0) + offset;
    const auto at = static_cast<sim::SimTime>(std::ceil(due));
    if (sim.now() < at) co_await sim.Delay(at - sim.now());
    sim.Spawn(OpenOp(tb, plan, p, i, due, loop, outs[p]));
  }
  co_await std::move(finished);
}

sim::Task<void> RunAll(Testbed& tb, const Plan& plan, bool open_loop,  // dufs-lint: allow(coro-ref-param)
                       std::vector<ProcOut>& outs, sim::SimTime& t0,
                       sim::SimTime& t1) {
  t0 = tb.sim().now();
  if (open_loop) {
    co_await RunOpen(tb, plan, outs, t0);
  } else {
    std::vector<sim::Task<void>> tasks;
    for (std::size_t p = 0; p < plan.procs.size(); ++p) {
      tasks.push_back(RunProc(tb, plan.procs[p], p, outs[p]));
    }
    co_await sim::WhenAll(std::move(tasks));
  }
  t1 = tb.sim().now();
}

// One measured window's results.
struct Window {
  std::uint64_t attempted = 0, failed = 0, mismatched = 0, late = 0;
  std::vector<double> lat[2];  // [is_write]
  std::vector<double> kind_lat[kKinds];
  std::int64_t service_ns[2] = {0, 0};
  std::array<std::uint64_t, kKinds> kinds{};
  sim::Duration span = 0;
  std::vector<Slice> slices;
  std::int64_t backlog_max = 0;
  Counters delta;
  obs::MetricsRegistry::Snapshot registry;
  std::string first_problem;

  double ops_per_s() const {
    return Ratio(static_cast<double>(attempted),
                 static_cast<double>(span) / sim::kSecond);
  }
  // Fingerprint of the simulated outcome: equal for equal seeds.
  std::string SimKey() const {
    double sums[2] = {0, 0};
    for (int w = 0; w < 2; ++w) {
      for (auto v : lat[w]) sums[w] += v;
    }
    return std::to_string(attempted) + "/" + std::to_string(span) + "/" +
           std::to_string(sums[0]) + "/" + std::to_string(sums[1]) + "/" +
           std::to_string(delta.events) + "/" + std::to_string(delta.messages);
  }
};

sim::Task<void> Finish(sim::Simulation& sim, sim::Task<void> task,  // dufs-lint: allow(coro-ref-param)
                       bool& done) {
  co_await std::move(task);
  done = true;
  sim.RequestStop();
}

// Runs one window in slices; with a probe, each slice's host time carries
// the probe's scale (the profiled run passes none, so the walk stays out of
// its samples).
Window RunWindow(Testbed& tb, const Plan& plan, bool open_loop,
                 SpeedProbe* probe) {
  ResetWindowMetrics(tb.obs().metrics());
  const Counters before = Counters::Read(tb);
  std::vector<ProcOut> outs(plan.procs.size());
  sim::SimTime t0 = 0, t1 = 0;
  Window w;
  auto& sim = tb.sim();
  bool done = false;
  {
    sim::CurrentSimulationScope scope(&sim);
    sim.Spawn(Finish(sim, RunAll(tb, plan, open_loop, outs, t0, t1), done));
  }
  for (sim::SimTime until = sim.now() + plan.slice; !done;
       until += plan.slice) {
    const double scale = probe != nullptr ? probe->Scale() : 1.0;
    const double c = CpuSeconds();
    const std::uint64_t events = sim.events_processed();
    sim.Run(until);
    w.slices.push_back(
        {CpuSeconds() - c, sim.events_processed() - events, scale});
    if (!done && sim.pending_events() == 0) {
      std::fprintf(stderr, "window stalled: no events left, ops unfinished\n");
      std::exit(1);
    }
  }
  sim.ClearStop();
  w.span = t1 - t0;
  w.delta = Counters::Read(tb) - before;
  w.registry = tb.obs().metrics().Merged();
  std::vector<std::pair<double, int>> edges;
  for (auto& o : outs) {
    for (int c = 0; c < 2; ++c) w.service_ns[c] += o.service_ns[c];
    for (std::size_t k = 0; k < kKinds; ++k) {
      auto& into = w.lat[IsRead(static_cast<Kind>(k)) ? 0 : 1];
      into.insert(into.end(), o.lat[k].begin(), o.lat[k].end());
      w.kind_lat[k].insert(w.kind_lat[k].end(), o.lat[k].begin(), o.lat[k].end());
      w.kinds[k] += o.kinds[k];
    }
    w.failed += o.failed;
    w.mismatched += o.mismatched;
    w.late += o.late;
    if (w.first_problem.empty()) w.first_problem = o.first_problem;
    for (const auto& [due, done] : o.busy) {
      edges.emplace_back(due, 1);
      edges.emplace_back(done, -1);
    }
  }
  w.attempted = w.lat[0].size() + w.lat[1].size();
  // Ops due but not yet answered, at its peak: the backlog an open loop
  // builds at the FUSE boundary (closed loop: the process count).
  std::sort(edges.begin(), edges.end());
  std::int64_t level = 0;
  for (const auto& [t, d] : edges) {
    level += d;
    w.backlog_max = std::max(w.backlog_max, level);
  }
  return w;
}

// The windows of one run as one sample: latencies and counts concatenate,
// simulated time adds up.
Window Pool(const std::vector<Window>& windows) {
  Window p;
  for (const Window& w : windows) {
    p.attempted += w.attempted;
    p.failed += w.failed;
    p.span += w.span;
    for (int c = 0; c < 2; ++c) {
      p.lat[c].insert(p.lat[c].end(), w.lat[c].begin(), w.lat[c].end());
    }
    for (std::size_t k = 0; k < kKinds; ++k) {
      p.kind_lat[k].insert(p.kind_lat[k].end(), w.kind_lat[k].begin(),
                           w.kind_lat[k].end());
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Output checks.

sim::Task<void> CheckWorker(Testbed& tb, const Plan& plan, std::size_t worker,  // dufs-lint: allow(coro-ref-param)
                            std::size_t workers,
                            std::vector<std::string>& problems) {
  vfs::FuseMount& fs = Mount(tb, worker);
  for (std::size_t i = worker; i < plan.present.size(); i += workers) {
    const auto& [path, is_dir] = plan.present[i];
    auto r = co_await fs.Stat(path);
    if (!r.ok() || r->IsDir() != is_dir) {
      problems.push_back("expected " + path + " to exist as " +
                         (is_dir ? "directory" : "file"));
    }
  }
  for (std::size_t i = worker; i < plan.absent.size(); i += workers) {
    auto r = co_await fs.Stat(plan.absent[i]);
    if (r.code() != StatusCode::kNotFound) {
      problems.push_back("expected " + plan.absent[i] + " to be gone");
    }
  }
  for (std::size_t i = worker; i < plan.children.size(); i += workers) {
    const auto& [path, count] = plan.children[i];
    auto r = co_await fs.ReadDir(path);
    if (!r.ok() || static_cast<std::int32_t>(r->size()) != count) {
      problems.push_back("readdir " + path + ": expected " +
                         std::to_string(count) + " entries, got " +
                         (r.ok() ? std::to_string(r->size()) : r.status().ToString()));
    }
  }
}

sim::Task<void> CheckModel(Testbed& tb, const Plan& plan,  // dufs-lint: allow(coro-ref-param)
                           std::vector<std::string>& problems) {
  std::vector<sim::Task<void>> tasks;
  const std::size_t workers = 64;
  for (std::size_t w = 0; w < workers; ++w) {
    tasks.push_back(CheckWorker(tb, plan, w, workers, problems));
  }
  co_await sim::WhenAll(std::move(tasks));
}

sim::Task<void> RunFsck(Testbed& tb, std::vector<std::string>& problems) {  // dufs-lint: allow(coro-ref-param)
  auto& node = tb.client(0);
  std::vector<vfs::FileSystem*> backends;
  for (auto& m : node.backend_mounts) backends.push_back(m.get());
  core::DufsFsck fsck(*node.dufs, *node.zk, backends);
  auto report = co_await fsck.Check();
  if (!report.ok()) {
    problems.push_back("fsck failed: " + report.status().ToString());
  } else if (!report->clean()) {
    problems.push_back("fsck: " + std::to_string(report->dangling.size()) +
                       " dangling, " + std::to_string(report->orphans.size()) +
                       " orphaned, " +
                       std::to_string(report->corrupt_records.size()) +
                       " corrupt");
  }
}

// Every check of the satellite list; returns the problems found.
std::vector<std::string> CheckOutputs(Testbed& tb, const Plan& plan,
                                      const Window& w) {
  std::vector<std::string> problems;
  if (w.failed + w.mismatched != 0) {
    problems.push_back(std::to_string(w.failed) + " failed and " +
                       std::to_string(w.mismatched) +
                       " wrong results, first: " + w.first_problem);
  }
  if (w.delta.fuse_ops != w.attempted) {
    problems.push_back("FuseMount dispatched " +
                       std::to_string(w.delta.fuse_ops) + " ops, driver sent " +
                       std::to_string(w.attempted));
  }
  Quiesce(tb);
  const std::uint64_t fp = tb.zk_server(0).db().Fingerprint();
  for (std::size_t i = 1; i < tb.zk_server_count(); ++i) {
    if (tb.zk_server(i).db().Fingerprint() != fp) {
      problems.push_back("zk" + std::to_string(i) +
                         " fingerprint differs from zk0");
    }
  }
  sim::RunTask(tb.sim(), RunFsck(tb, problems));
  sim::RunTask(tb.sim(), CheckModel(tb, plan, problems));
  return problems;
}

// ---------------------------------------------------------------------------
// Traced window: span log → tracestats decomposition.

using tracestats::Category;
using tracestats::kCategoryCount;

struct TraceBreakdown {
  bool valid = false;
  std::string why_invalid;
  // Per class (0 read, 1 write): category ns summed over ops with a root.
  std::array<std::int64_t, kCategoryCount> ns[2]{};
  std::int64_t root_ns[2] = {0, 0};
  std::array<std::int64_t, kCategoryCount> file_stat_ns{};
  std::int64_t file_stat_total = 0;
  std::uint64_t file_stats = 0;
  std::map<std::string, std::vector<std::int64_t>> span_durations;
  std::vector<std::int64_t> nic_tx_wait;
};

bool ReadClass(const std::string& cls) {
  return cls == "stat" || cls == "readdir";
}

// Runs the tracestats analyzer over the span log, a bounded group of traces
// at a time (the analyzer's JSON tree costs far more than the log itself),
// then applies the `tracestats --check` rule to the sums.
TraceBreakdown AnalyzeTrace(Testbed& tb, const Plan& plan, const Window& w) {
  TraceBreakdown out;
  const obs::Tracer& tracer = tb.obs().tracer();
  const auto& events = tracer.events();
  std::unordered_set<std::string> file_stats;
  for (const auto& ops : plan.procs) {
    for (const Op& op : ops) {
      if (op.kind == Kind::kStat && op.expect_dir == 0) file_stats.insert(op.path);
    }
  }
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    const std::string name = e.name;
    if (name == "nic-tx") {
      for (const auto& a : e.args) {
        if (std::string(a.key) == "wait_ns") out.nic_tx_wait.push_back(a.num);
      }
    }
    out.span_durations[name].push_back(e.dur);
    if (e.trace != 0) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return events[a].trace < events[b].trace;
  });

  obs::Tracer scratch;
  scratch.Bind(&tb.sim());
  scratch.SetEnabled(true);
  for (const auto& name : tracer.tracks()) scratch.Track(name);
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> classes;
  constexpr std::size_t kChunkEvents = 20000;
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = std::min(order.size(), i + kChunkEvents);
    while (j < order.size() && events[order[j]].trace == events[order[j - 1]].trace) {
      ++j;
    }
    for (std::size_t k = i; k < j; ++k) {
      const auto& e = events[order[k]];
      scratch.Complete(e.track, e.name, e.cat, e.start, e.dur, e.trace, e.args);
    }
    tracestats::JsonValue doc;
    std::string error;
    tracestats::AnalyzeResult result;
    if (!tracestats::ParseJson(scratch.ToChromeJson(), &doc, &error) ||
        !tracestats::Analyze(doc, nullptr, static_cast<int>(j - i), 0.01,
                             &result, &error)) {
      out.why_invalid = "tracestats: " + error;
      return out;
    }
    scratch.Clear();
    for (const auto& c : result.classes) {
      auto& [count, total] = classes[c.op];
      count += c.count;
      total += c.total_ns;
      const int cls = ReadClass(c.op) ? 0 : 1;
      out.root_ns[cls] += c.total_ns;
      for (int k = 0; k < kCategoryCount; ++k) out.ns[cls][k] += c.ns[k];
    }
    for (const auto& op : result.slowest) {
      if (op.op != "stat" || !file_stats.count(op.path)) continue;
      ++out.file_stats;
      out.file_stat_total += op.dur_ns;
      for (int k = 0; k < kCategoryCount; ++k) out.file_stat_ns[k] += op.ns[k];
    }
    i = j;
  }

  // Reconciliation: per class, decomposition total vs the op timer's sum
  // (within 1%), and op count vs the ops the driver issued.
  for (std::size_t k = 0; k < kKinds; ++k) {
    const char* cls = kKindClass[k];
    if (cls == nullptr) continue;
    const auto it = classes.find(cls);
    const std::uint64_t traced = it == classes.end() ? 0 : it->second.first;
    const std::int64_t decomposed = it == classes.end() ? 0 : it->second.second;
    if (traced != w.kinds[k]) {
      out.why_invalid = std::string(cls) + ": " + std::to_string(traced) +
                        " traced ops, driver issued " +
                        std::to_string(w.kinds[k]);
      return out;
    }
    const auto h = w.registry.histograms.find(std::string("op.") + cls + "_ns");
    const std::int64_t timed = h == w.registry.histograms.end() ? 0 : h->second.sum();
    if (std::abs(static_cast<double>(decomposed - timed)) >
        0.01 * static_cast<double>(std::max<std::int64_t>(timed, 1))) {
      out.why_invalid = std::string(cls) + ": decomposition " +
                        std::to_string(decomposed) + " ns vs timer " +
                        std::to_string(timed) + " ns";
      return out;
    }
  }
  out.valid = true;
  return out;
}

// ---------------------------------------------------------------------------
// Profiled window: host self time per layer from the wall-clock profiler.

struct HostShares {
  std::uint64_t samples = 0;
  double sim = 0, zk = 0, core = 0, pfs = 0, unattributed = 0;
};

HostShares ProfileShares(const std::string& digest) {
  HostShares s;
  tracestats::JsonValue doc;
  std::string error;
  if (!tracestats::ParseJson(digest, &doc, &error)) return s;
  const auto* frames = doc.Find("frames");
  if (frames == nullptr) return s;
  double total = 0, sim = 0, zk = 0, core = 0, pfs = 0, un = 0;
  for (const auto& f : frames->items) {
    const std::string name = f.GetString("name");
    const std::string kind = f.GetString("kind");
    const double self = f.GetNumber("self");
    total += self;
    if (name == "unattributed") {
      un += self;
    } else if (kind == "engine") {
      sim += self;
    } else if (name.rfind("zk", 0) == 0 || name == "fsync-batch") {
      zk += self;  // server nodes, zk-read/zk-write/zk-rpc, journal
    } else if (name == "mds-call" || name == "oss-call" || name == "pvfs-call") {
      pfs += self;
    } else if (kind == "op" || name.rfind("client", 0) == 0) {
      core += self;
    }
  }
  s.samples = static_cast<std::uint64_t>(total);
  s.sim = Ratio(sim, total);
  s.zk = Ratio(zk, total);
  s.core = Ratio(core, total);
  s.pfs = Ratio(pfs, total);
  s.unattributed = Ratio(un, total);
  return s;
}

// ---------------------------------------------------------------------------
// Reporting.

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": ";
      bench::AppendJsonNumber(&out, entries_[i].value);
      out += std::string(", \"unit\": \"") + entries_[i].unit + "\"}";
    }
    return out + "}";
  }
  void Print() const {
    for (const auto& e : entries_) {
      std::fprintf(stderr, "  %-34s %14.6g %s\n", e.name.c_str(), e.value,
                   e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.Json().c_str());
  std::fflush(stdout);
}

[[noreturn]] void Fail(std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<std::string>& problems) {
  for (const auto& p : problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  PrintResult(false, std::max<std::uint64_t>(attempted, 1), failed, Metrics());
  std::exit(1);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool closed_loop = false;
  bool digest = false;
};

Args ParseArgs(int argc, char** argv) {
  constexpr char kUsage[] =
      "dufsbench --workload=NAME --seed=N [--seconds=S] [--trace=0|1] "
      "[--scale=full|tiny] [--closed-loop] [--digest]";
  const bench::Flags flags(argc, argv, kUsage);
  Args a;
  a.workload = flags.Str("workload", "");
  const long seed = flags.Int("seed", -1);
  a.seconds = flags.Double("seconds", 10);
  a.trace = flags.Bool("trace");
  a.tiny = flags.Str("scale", "full") == "tiny";
  a.closed_loop = flags.Bool("closed-loop");
  a.digest = flags.Bool("digest");
  if (a.workload.empty() || seed < 0) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    std::exit(2);
  }
  a.seed = static_cast<std::uint64_t>(seed);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // A run simulates several independent windows, each from its own inputs
  // (seed, index), and pools their samples: the run's simulated metrics then
  // rest on that many times the work of one window.
  const std::size_t n_windows = WindowsFor(args.workload);
  std::vector<Plan> plans;
  for (std::uint64_t i = 0; i < n_windows; ++i) {
    auto plan = MakePlan(args.workload, args.seed * n_windows + i,
                         Scale{args.tiny});
    if (!plan) {
      std::fprintf(stderr, "dufsbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
    plans.push_back(std::move(*plan));
  }
  if (args.digest) {
    std::uint64_t digest = 0;
    for (const Plan& plan : plans) digest = digest * 31 + PlanDigest(plan);
    std::printf("%016llx\n", static_cast<unsigned long long>(digest));
    return 0;
  }
  const bool open_loop = plans[0].open_loop && !args.closed_loop;

  // Repetitions: fresh cluster, populate (timed as set-up), measured window.
  // Repetition r runs window r % n_windows; every window runs at least once
  // and then the cycle repeats until --seconds of host time are used. With
  // --trace=1 only window 0 runs, alternately untraced and with the span log
  // on, so the tracer's host cost compares like with like. A repeated window
  // must simulate exactly as its first run (traced: first traced run) did.
  // Host time per op is the median host cost per simulated event over the
  // slices of every repetition (MedianNsPerEvent) times the events per op.
  // Host times are scaled to the reference speed (SpeedProbe).
  const std::size_t n_run = args.trace ? 1 : n_windows;
  const std::size_t min_reps = args.trace ? 2 * kMinTracedReps : n_windows;
  std::vector<double> setup_s;
  std::vector<Slice> host_slices, traced_slices;
  std::vector<Window> windows;
  std::optional<Window> traced;
  TraceBreakdown tr;
  SpeedProbe probe;
  // One set-up, its CPU time scaled by the walks just before and after it;
  // `spent` adds up the unscaled time.
  double spent = 0;
  auto timed_setup = [&](const Plan& plan) {
    const double scale0 = probe.Measure();
    const double s0 = CpuSeconds();
    auto tb = BuildCluster(plan);
    const double s = CpuSeconds() - s0;
    spent += s;
    setup_s.push_back(s * 0.5 * (scale0 + probe.Measure()));
    return tb;
  };
  const double t_begin = CpuSeconds();
  const double wall_begin = WallSeconds();
  for (std::size_t rep = 0;; ++rep) {
    const double elapsed = CpuSeconds() - t_begin;
    const double wall = WallSeconds() - wall_begin;
    if (rep >= min_reps && (elapsed >= args.seconds || rep >= kMaxReps ||
                            wall >= kWallShare * args.seconds)) {
      break;
    }
    const std::size_t index = rep % n_run;
    const bool tracing = args.trace && rep % 2 == 1;
    const Plan& plan = plans[index];
    auto tb = timed_setup(plan);
    tb->obs().tracer().SetEnabled(tracing);
    Window w = RunWindow(*tb, plan, open_loop, &probe);
    tb->obs().tracer().SetEnabled(false);
    auto& slices = tracing ? traced_slices : host_slices;
    slices.insert(slices.end(), w.slices.begin(), w.slices.end());
    const Window* first = tracing ? (traced ? &*traced : nullptr)
                                  : (index < windows.size() ? &windows[index] : nullptr);
    if (first == nullptr) {
      if (tracing) tr = AnalyzeTrace(*tb, plan, w);
      auto problems = CheckOutputs(*tb, plan, w);
      if (!problems.empty()) Fail(w.attempted, w.failed, problems);
      if (tracing) {
        traced = std::move(w);
      } else {
        windows.push_back(std::move(w));
      }
    } else if (w.SimKey() != first->SimKey()) {
      Fail(w.attempted, w.failed,
           {"repetition " + std::to_string(rep) +
            " simulated differently from its first run: " + w.SimKey() +
            " vs " + first->SimKey()});
    }
  }
  // Set-up is short on some workloads; time extra set-ups (cluster build,
  // mount, format, population) until the median rests on enough of them.
  const std::size_t reps = setup_s.size();
  while (!args.trace && setup_s.size() < kMinSetups &&
         spent < kSetupShare * args.seconds) {
    timed_setup(plans[setup_s.size() % n_windows]);  // teardown is not set-up
  }
  const Window pooled = Pool(windows);
  const double ops = static_cast<double>(pooled.attempted);
  std::uint64_t events = 0;
  for (const Window& w : windows) events += w.delta.events;
  const double host_ns =
      MedianNsPerEvent(host_slices) * static_cast<double>(events) / ops;

  std::fprintf(stderr,
               "dufsbench %s seed=%llu: %llu ops (%llu read, %llu write) in "
               "%zu windows, %zu reps, %.3f sim s, %s loop\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(pooled.attempted),
               static_cast<unsigned long long>(pooled.lat[0].size()),
               static_cast<unsigned long long>(pooled.lat[1].size()),
               windows.size(), reps,
               static_cast<double>(pooled.span) / sim::kSecond,
               open_loop ? "open" : "closed");
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (pooled.kind_lat[k].empty()) continue;
    std::fprintf(stderr, "  %-8s %7zu ops  p50 %10.3f us  p99 %10.3f us\n",
                 kKindName[k], pooled.kind_lat[k].size(),
                 PercentileUs(pooled.kind_lat[k], 50),
                 PercentileUs(pooled.kind_lat[k], 99));
  }
  double host_total = 0, slice_events = 0;
  std::vector<double> scales;
  for (const Slice& x : host_slices) {
    host_total += x.host_s;
    slice_events += static_cast<double>(x.events);
    scales.push_back(x.scale);
  }
  std::fprintf(stderr,
               "  host: %zu slices, %.3f s, ns per event unscaled mean %.1f, "
               "scaled median %.1f; probe scale median %.3f",
               host_slices.size(), host_total,
               Ratio(host_total * 1e9, slice_events),
               MedianNsPerEvent(host_slices), Median(scales));
  std::fprintf(stderr, "\n  setup s:");
  for (double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");

  Metrics m;
  if (!args.trace) {
    m.Add("sim_ops_per_s", pooled.ops_per_s(), "ops/s");
    m.Add("read_p50_us", PercentileUs(pooled.lat[0], 50), "us");
    m.Add("read_p99_us", PercentileUs(pooled.lat[0], 99), "us");
    m.Add("write_p50_us", PercentileUs(pooled.lat[1], 50), "us");
    m.Add("write_p99_us", PercentileUs(pooled.lat[1], 99), "us");
    m.Add("ok_frac", 1.0 - Ratio(static_cast<double>(pooled.failed), ops),
          "ratio");
    m.Add("host_ns_per_op", host_ns, "ns");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", PeakRssMiB() - probe.MiB(), "MiB");
    m.Print();
    PrintResult(true, pooled.attempted, pooled.failed, m);
    return 0;
  }

  // The per-layer view follows window 0: its untraced counters, its traced
  // runs, then the same window once more under the profiler.
  const Plan& plan = plans[0];
  const Window& w = windows[0];
  const double ops0 = static_cast<double>(w.attempted);
  // --- per-layer: counters of the first untraced window ---------------------
  const Counters& d = w.delta;
  const auto& reg = w.registry;
  auto hist = [&reg](const std::string& key) -> const LatencyHistogram* {
    const auto it = reg.histograms.find(key);
    return it == reg.histograms.end() ? nullptr : &it->second;
  };
  auto gauge_max = [&reg](const std::string& key) -> double {
    const auto it = reg.gauge_maxes.find(key);
    return it == reg.gauge_maxes.end() ? 0.0 : static_cast<double>(it->second);
  };
  double pfs_calls = 0;
  for (const char* key : {"lustre.mds_ns", "lustre.oss_ns", "pvfs.call_ns"}) {
    if (const auto* h = hist(key)) pfs_calls += static_cast<double>(h->count());
  }
  const auto* fsync = hist("journal.fsync_batch");

  const Window& tw = *traced;
  std::size_t znodes = 0, zk_bytes = 0;
  // --- profiled window -------------------------------------------------------
  HostShares hs;
  {
    auto tb = BuildCluster(plan);
    for (std::size_t i = 0; i < tb->zk_server_count(); ++i) {
      znodes += tb->zk_server(i).db().tree().node_count();
    }
    zk_bytes = tb->ZkMemoryBytes();
    prof::Options po;
    po.mode = prof::Options::Mode::kSignal;
    po.hz = 997;
    std::string error;
    if (!prof::Start(po, &error)) {
      Fail(w.attempted, w.failed, {"profiler: " + error});
    }
    Window pw = RunWindow(*tb, plan, open_loop, nullptr);
    prof::Stop();
    hs = ProfileShares(prof::ExportDigestJson());
    prof::Reset();
    (void)pw;
  }

  m.Add("sim.events_per_op", Ratio(static_cast<double>(d.events), ops0), "count");
  m.Add("sim.host_ns_per_event",
        Ratio(host_ns * ops0, static_cast<double>(d.events)), "ns");
  m.Add("sim.host_share", hs.sim, "ratio");
  m.Add("net.msgs_per_op", Ratio(static_cast<double>(d.messages), ops0), "count");
  m.Add("net.rpc_calls_per_op", Ratio(static_cast<double>(d.rpc_calls), ops0), "count");
  m.Add("net.nic_tx_wait_mean_us", MeanUs(tr.nic_tx_wait), "us");
  m.Add("net.nic_tx_wait_p99_us", PercentileUs(tr.nic_tx_wait, 99), "us");
  m.Add("zk.requests_per_op", Ratio(static_cast<double>(d.zk_requests), ops0), "count");
  m.Add("zk.compound_per_op", Ratio(static_cast<double>(d.zk_compound), ops0), "count");
  m.Add("zk.reads_served_per_op", Ratio(static_cast<double>(d.zk_reads), ops0), "count");
  m.Add("zk.writes_committed_per_op", Ratio(static_cast<double>(d.zk_writes), ops0), "count");
  m.Add("zk.rpc_mean_us", MeanUs(tr.span_durations["zk-rpc"]), "us");
  m.Add("zk.rpc_p50_us", PercentileUs(tr.span_durations["zk-rpc"], 50), "us");
  m.Add("zk.rpc_p99_us", PercentileUs(tr.span_durations["zk-rpc"], 99), "us");
  m.Add("zk.read_queue_max", gauge_max("zk.read_queue"), "count");
  m.Add("zk.write_queue_max", gauge_max("zk.write_queue"), "count");
  m.Add("zk.fsync_batch_mean",
        fsync ? Ratio(static_cast<double>(fsync->sum()),
                      static_cast<double>(fsync->count()))
              : 0.0,
        "count");
  m.Add("zk.failovers", static_cast<double>(d.zk_failovers), "count");
  m.Add("zk.est_bytes_per_znode",
        Ratio(static_cast<double>(zk_bytes), static_cast<double>(znodes)), "B");
  m.Add("zk.host_share", hs.zk, "ratio");
  m.Add("core.cache_hit_rate",
        Ratio(static_cast<double>(d.cache_hits),
              static_cast<double>(d.cache_hits + d.cache_misses)),
        "ratio");
  m.Add("core.cache_evictions_per_op",
        Ratio(static_cast<double>(d.cache_evictions), ops0), "count");
  m.Add("core.cache_invalidations_per_op",
        Ratio(static_cast<double>(d.cache_invalidations), ops0), "count");
  for (const char* cls : {"stat", "create", "unlink", "mkdir", "rename"}) {
    m.Add(std::string("core.op_") + cls + "_p99_us",
          PercentileUs(tr.span_durations[cls], 99), "us");
  }
  m.Add("core.host_share", hs.core, "ratio");
  m.Add("vfs.inflight_max", static_cast<double>(w.backlog_max), "count");
  m.Add("vfs.late_frac", Ratio(static_cast<double>(w.late), ops0), "ratio");
  m.Add("pfs.calls_per_op", Ratio(pfs_calls, ops0), "count");
  m.Add("pfs.lustre_ops_per_op", Ratio(static_cast<double>(d.lustre_ops), ops0), "count");
  {
    std::vector<std::int64_t> calls;
    for (const char* name : {"mds-call", "oss-call", "pvfs-call"}) {
      const auto& v = tr.span_durations[name];
      calls.insert(calls.end(), v.begin(), v.end());
    }
    m.Add("pfs.call_mean_us", MeanUs(calls), "us");
    m.Add("pfs.call_p99_us", PercentileUs(calls, 99), "us");
  }
  m.Add("pfs.lustre_mds_p99_us", PercentileUs(tr.span_durations["mds-call"], 99), "us");
  m.Add("pfs.lustre_oss_p99_us", PercentileUs(tr.span_durations["oss-call"], 99), "us");
  m.Add("pfs.pvfs_call_p99_us", PercentileUs(tr.span_durations["pvfs-call"], 99), "us");
  m.Add("pfs.host_share", hs.pfs, "ratio");

  // Latency shares per op class over the FUSE-boundary service time: the
  // FUSE dispatch (outside the DufsClient root span) plus the decomposition.
  if (tr.valid) {
    for (int c = 0; c < 2; ++c) {
      const char* suffix = c == 0 ? ".read" : ".write";
      const double total = static_cast<double>(tw.service_ns[c]);
      auto share = [&](Category cat) {
        return Ratio(static_cast<double>(tr.ns[c][static_cast<int>(cat)]), total);
      };
      m.Add(std::string("vfs.client_share") + suffix,
            Ratio(total - static_cast<double>(tr.root_ns[c]), total), "ratio");
      m.Add(std::string("core.local_share") + suffix,
            share(Category::kClient) + share(Category::kOther), "ratio");
      m.Add(std::string("net.rpc_wait_share") + suffix, share(Category::kRpcWait), "ratio");
      m.Add(std::string("net.nic_wait_share") + suffix, share(Category::kNicWait), "ratio");
      m.Add(std::string("net.wire_share") + suffix, share(Category::kWire), "ratio");
      m.Add(std::string("pfs.backend_share") + suffix, share(Category::kBackend), "ratio");
      m.Add(std::string("zk.queue_share") + suffix, share(Category::kZkQueue), "ratio");
      m.Add(std::string("zk.quorum_share") + suffix, share(Category::kQuorum), "ratio");
      m.Add(std::string("zk.fsync_share") + suffix, share(Category::kFsync), "ratio");
    }
  } else {
    std::fprintf(stderr, "trace reconciliation failed (%s): shares withheld\n",
                 tr.why_invalid.c_str());
  }
  m.Add("obs.trace_reconciled", tr.valid ? 1.0 : 0.0, "count");
  m.Add("obs.trace_sim_delta",
        Ratio(tw.ops_per_s() - w.ops_per_s(), w.ops_per_s()), "ratio");
  m.Add("obs.trace_host_overhead",
        Ratio(MedianNsPerEvent(traced_slices) *
                  static_cast<double>(tw.delta.events) /
                  static_cast<double>(tw.attempted),
              host_ns) - 1.0, "ratio");
  m.Add("obs.unattributed_share", hs.unattributed, "ratio");
  m.Add("obs.profile_samples", static_cast<double>(hs.samples), "count");

  if (tr.file_stats > 0) {
    std::fprintf(stderr, "  file-stat breakdown (%llu traced ops, mean %.1f us):",
                 static_cast<unsigned long long>(tr.file_stats),
                 static_cast<double>(tr.file_stat_total) / tr.file_stats / 1e3);
    for (int k = 0; k < kCategoryCount; ++k) {
      std::fprintf(stderr, " %s=%.3f",
                   tracestats::CategoryName(static_cast<Category>(k)),
                   Ratio(static_cast<double>(tr.file_stat_ns[k]),
                         static_cast<double>(tr.file_stat_total)));
    }
    std::fprintf(stderr, "\n");
  }
  m.Print();
  PrintResult(true, pooled.attempted, pooled.failed, m);
  return 0;
}
