#include "bench/harness.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/log.h"

namespace dufs::bench {

namespace {

constexpr char kSharedUsage[] =
    "[--metrics-json=PATH] [--trace=PATH] [--timeline] [--timeline-us=200] "
    "[--baseline=PATH] [--slo=op:target:budget[,...]] [--flight-dump-dir=DIR] "
    "[--slo-window-us=N] [--flight-capacity=N] [--profile=PATH] "
    "[--profile-hz=97] [--profile-every=N] [--profile-digest=PATH]";

// "500us" / "2ms" / "1s" / "250" (bare = ns) -> nanoseconds; -1 on parse
// failure.
std::int64_t ParseDurationNs(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || v < 0) return -1;
  const std::string unit(end);
  if (unit.empty() || unit == "ns") return static_cast<std::int64_t>(v);
  if (unit == "us") return static_cast<std::int64_t>(v * 1e3);
  if (unit == "ms") return static_cast<std::int64_t>(v * 1e6);
  if (unit == "s") return static_cast<std::int64_t>(v * 1e9);
  return -1;
}

// --slo=op:target:budget[,op:target:budget...]; exits 2 on a bad clause.
std::vector<obs::SloSpec> ParseSlos(const std::string& flag) {
  std::vector<obs::SloSpec> slos;
  std::size_t start = 0;
  while (start < flag.size()) {
    auto end = flag.find(',', start);
    if (end == std::string::npos) end = flag.size();
    const std::string clause = flag.substr(start, end - start);
    start = end + 1;
    if (clause.empty()) continue;
    const auto bad = [&clause] {
      std::fprintf(stderr, "--slo: want op:target:budget, got \"%s\"\n",
                   clause.c_str());
      std::exit(2);
    };
    const auto c1 = clause.find(':');
    const auto c2 = c1 == std::string::npos ? std::string::npos
                                            : clause.find(':', c1 + 1);
    if (c2 == std::string::npos) bad();
    const char* op = obs::Incidents::CanonicalOpName(clause.substr(0, c1));
    const std::int64_t target =
        ParseDurationNs(clause.substr(c1 + 1, c2 - c1 - 1));
    const double budget = std::strtod(clause.c_str() + c2 + 1, nullptr);
    if (op == nullptr || target < 0 || budget <= 0.0 || budget > 1.0) bad();
    slos.push_back(obs::SloSpec{op, target, budget});
  }
  return slos;
}

}  // namespace

Harness::Harness(std::string name, int argc, char** argv,
                 const std::string& usage)
    : name_(std::move(name)),
      flags_(argc, argv, name_ + " " + usage + " " + kSharedUsage),
      metrics_path_(flags_.Str("metrics-json", "")),
      trace_path_(flags_.Str("trace", "")),
      baseline_path_(flags_.Str("baseline", "")),
      timeline_(flags_.Bool("timeline")),
      timeline_us_(flags_.Int("timeline-us", 200)),
      slos_(ParseSlos(flags_.Str("slo", ""))),
      dump_dir_(flags_.Str("flight-dump-dir", "")),
      slo_window_us_(flags_.Int("slo-window-us", 10000)),
      flight_capacity_(flags_.Int("flight-capacity", 0)),
      profile_path_(flags_.Str("profile", "")),
      profile_digest_path_(flags_.Str("profile-digest", "")),
      baseline_(name_) {
  if (!dump_dir_.empty()) {
    // `dumps`, `dumps/` and `dumps/.` must name the same directory: the
    // dump writer appends `/dump_<seq>_<type>.json` verbatim and the path
    // is recorded (as a basename, in the metrics export), so a redundant
    // separator would leak into the output. The writer also skips dumps
    // into a missing directory, so create it up front.
    dump_dir_ =
        std::filesystem::path(dump_dir_).lexically_normal().generic_string();
    while (dump_dir_.size() > 1 && dump_dir_.back() == '/') {
      dump_dir_.pop_back();
    }
    std::error_code ec;
    std::filesystem::create_directories(dump_dir_, ec);
    if (ec) {
      std::fprintf(stderr, "%s: cannot create --flight-dump-dir %s: %s\n",
                   name_.c_str(), dump_dir_.c_str(), ec.message().c_str());
      failed_ = true;
    }
  }
  if (profile_path_.empty()) return;
  prof::Options po;
  const long every = flags_.Int("profile-every", 0);
  if (every > 0) {
    po.mode = prof::Options::Mode::kCount;
    po.every = static_cast<std::uint64_t>(every);
  } else {
    po.mode = prof::Options::Mode::kSignal;
    po.hz = static_cast<int>(flags_.Int("profile-hz", 97));
  }
  std::string error;
  if (!prof::Start(po, &error)) {
    std::fprintf(stderr, "%s: --profile: %s\n", name_.c_str(), error.c_str());
    failed_ = true;
    return;
  }
  profiling_ = true;
}

Harness::~Harness() {
  if (!profiling_) return;
  prof::Stop();
  prof::Reset();
}

void Harness::Arm(obs::Observability& obs) {
  if (!incidents()) return;
  if (flight_capacity_ > 0) {
    obs.flight().SetCapacity(static_cast<std::uint32_t>(flight_capacity_));
  }
  obs::AnomalyConfig cfg;
  cfg.window_ns = slo_window_us_ * 1000;
  cfg.dump_dir = dump_dir_;
  obs.incidents().Configure(cfg);
  for (const obs::SloSpec& slo : slos_) obs.incidents().AddSlo(slo);
}

void Harness::StartTimeline(obs::Observability& obs, sim::Simulation& sim) {
  if (!timeline_) return;
  timeline_sampler_.set_interval(timeline_us_ * 1000);
  timeline_sampler_.WatchAllGauges(obs.metrics());
  timeline_sampler_.Start(sim);
}

void Harness::Capture(obs::Observability& obs) {
  DUFS_CHECK(!captured_);
  captured_ = true;
  if (tracing() &&
      Write("trace", trace_path_, obs.tracer().ToChromeJson())) {
    std::printf("trace written: %s (%zu spans)\n", trace_path_.c_str(),
                obs.tracer().events().size());
  }
  if (timeline_sampler_.running()) {
    timeline_sampler_.Stop();
    metrics_.SetTimelineJson(timeline_sampler_.ToJson());
  }
  if (incidents()) {
    obs.incidents().Flush();
    const auto& anomalies = obs.incidents().anomalies();
    std::printf("[incidents] %zu anomalies (%llu suppressed by cooldown)\n",
                anomalies.size(),
                static_cast<unsigned long long>(obs.incidents().suppressed()));
    for (const auto& a : anomalies) {
      std::printf("[incidents]   #%llu t=%lldns %s on %s value=%lld "
                  "threshold=%lld%s%s\n",
                  static_cast<unsigned long long>(a.seq),
                  static_cast<long long>(a.t), a.type, a.node.c_str(),
                  static_cast<long long>(a.value),
                  static_cast<long long>(a.threshold),
                  a.dump_path.empty() ? "" : " dump=", a.dump_path.c_str());
    }
    metrics_.SetIncidentsJson(obs.incidents().ReportJson());
  }
  if (!metrics_path_.empty()) metrics_.SetRegistryJson(obs.metrics().ToJson());
}

void Harness::Fail(const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", name_.c_str(), why.c_str());
  failed_ = true;
}

void Harness::PhaseErrors(const std::string& what, std::uint64_t errors) {
  if (errors > 0) Fail(what + " errors=" + std::to_string(errors));
}

void Harness::StopProfiler() {
  if (!profiling_) return;
  profiling_ = false;
  prof::Stop();
  const prof::Stats stats = prof::GetStats();
  Write("profile", profile_path_, prof::ExportFolded());
  if (!profile_digest_path_.empty()) {
    Write("profile digest", profile_digest_path_, prof::ExportDigestJson());
  }
  std::printf("[prof] %llu samples (%llu dropped, %llu truncated) -> %s\n",
              static_cast<unsigned long long>(stats.samples),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.truncated),
              profile_path_.c_str());
  prof::Reset();
}

int Harness::Finish() {
  StopProfiler();
  if (!captured_ && (tracing() || timeline_ || incidents())) {
    std::fprintf(stderr,
                 "%s: no simulated run to observe; --trace, --timeline, "
                 "--slo and --flight-dump-dir have no effect\n",
                 name_.c_str());
  }
  if (!metrics_path_.empty() &&
      Write("metrics", metrics_path_, metrics_.ToJson() + "\n")) {
    std::printf("metrics written: %s\n", metrics_path_.c_str());
  }
  if (!baseline_path_.empty()) {
    if (baseline_.empty()) {
      std::fprintf(stderr, "%s: has no baseline metrics; --baseline ignored\n",
                   name_.c_str());
    } else if (Write("baseline", baseline_path_, baseline_.ToJson() + "\n")) {
      std::printf("baseline written: %s\n", baseline_path_.c_str());
    }
  }
  return failed_ ? 1 : 0;
}

bool Harness::Write(const char* what, const std::string& path,
                    const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "%s: cannot write %s: %s\n", name_.c_str(), what,
                 path.c_str());
    failed_ = true;
  }
  return ok;
}

}  // namespace dufs::bench
