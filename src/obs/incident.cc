#include "obs/incident.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/json_text.h"
#include "obs/trace.h"

namespace dufs::obs {

namespace {

// Fixed-decimal double for JSON — snprintf keeps formatting byte-stable.
std::string Dbl(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

const char* Incidents::CanonicalOpName(const std::string& name) {
  static constexpr const char* kOps[] = {"stat",   "mkdir",   "create",
                                         "unlink", "readdir", "rename"};
  for (const char* op : kOps) {
    if (name == op) return op;
  }
  return nullptr;
}

void Incidents::Configure(const AnomalyConfig& config) {
  config_ = config;
  if (config_.window_ns <= 0) config_.window_ns = sim::Ms(10);
  if (config_.trailing_windows <= 0) config_.trailing_windows = 1;
  for (ClassState& c : classes_) c.cluster.Init(config_.trailing_windows);
  // A dump lists the newest spans of the tracer's store, which records only
  // while enabled. Never disabled here: a --trace run stays traced.
  if (tracer_ != nullptr && !config_.dump_dir.empty()) {
    tracer_->SetEnabled(true);
  }
  Arm();
}

void Incidents::AddSlo(const SloSpec& spec) {
  SloState state;
  state.spec = spec;
  state.cls = ClassIndex(spec.op);
  slos_.push_back(state);
  Arm();
}

void Incidents::Arm() { armed_ = sim_ != nullptr; }

int Incidents::ClassIndex(const char* cls) {
  for (int i = 0; i < static_cast<int>(classes_.size()); ++i) {
    if (classes_[i].name == cls || std::strcmp(classes_[i].name, cls) == 0) {
      return i;
    }
  }
  if (classes_.size() >= kMaxClasses) return static_cast<int>(classes_.size()) - 1;
  ClassState c;
  c.name = cls;
  c.cluster.Init(config_.trailing_windows);
  classes_.push_back(std::move(c));
  return static_cast<int>(classes_.size()) - 1;
}

void Incidents::RollTo(sim::SimTime now) {
  const std::uint64_t w =
      static_cast<std::uint64_t>(now / config_.window_ns);
  if (!window_open_) {
    window_open_ = true;
    cur_window_ = w;
    return;
  }
  if (w == cur_window_) return;
  // After a long idle gap every trailing window in range is empty anyway:
  // close at most depth+2 windows, then jump. Detector decisions still
  // depend only on sim history, so this stays deterministic.
  const std::uint64_t cap =
      static_cast<std::uint64_t>(config_.trailing_windows) + 2;
  if (w - cur_window_ > cap) {
    for (std::uint64_t i = 0; i < cap; ++i) {
      CloseWindow();
      ++cur_window_;
    }
    cur_window_ = w;
    return;
  }
  while (cur_window_ != w) {
    CloseWindow();
    ++cur_window_;
  }
}

void Incidents::CloseWindow() {
  // p999-spike, per class: current window vs the trailing merge.
  for (ClassState& c : classes_) {
    if (c.cluster.cur.total >= config_.spike_min_ops &&
        c.cluster.trailing_count() >= 2) {
      const Log2Hist trailing = c.cluster.TrailingMerged();
      if (trailing.total >= config_.spike_min_ops) {
        const std::int64_t base = trailing.Quantile(0.999);
        std::int64_t threshold = static_cast<std::int64_t>(
            static_cast<double>(base) * config_.spike_factor);
        if (threshold < config_.spike_floor_ns) {
          threshold = config_.spike_floor_ns;
        }
        const std::int64_t cur = c.cluster.cur.Quantile(0.999);
        if (cur > threshold) {
          std::string detail = "op=";
          detail += c.name;
          detail += " trailing_p999_ns=";
          detail += std::to_string(base);
          Fire("p999-spike", 0, /*cluster=*/true, cur, threshold,
               std::move(detail));
        }
      }
    }
    c.cluster.Roll();
  }
  // burn-rate, per SLO.
  for (SloState& s : slos_) {
    const std::uint64_t n = s.window_good + s.window_bad;
    const double burn = s.WindowBurn();
    if (n >= config_.burn_min_ops && burn >= config_.burn_alert) {
      ++burn_alerts_;
      std::string detail = "op=";
      detail += s.spec.op;
      detail += " bad=";
      detail += std::to_string(s.window_bad);
      detail += "/";
      detail += std::to_string(n);
      Fire("burn-rate", 0, /*cluster=*/true,
           static_cast<std::int64_t>(burn * 1000.0),
           static_cast<std::int64_t>(config_.burn_alert * 1000.0),
           std::move(detail));
    }
    s.Roll(cur_window_);
  }
  // cache-collapse, per node.
  for (TrackId t = 0; t < probes_.size(); ++t) {
    ProbeState& p = probes_[t];
    if (p.window_probes >= config_.hit_rate_min_probes &&
        p.trailing_probes >= config_.hit_rate_min_probes) {
      const double rate = static_cast<double>(p.window_hits) /
                          static_cast<double>(p.window_probes);
      const double trailing_rate = static_cast<double>(p.trailing_hits) /
                                   static_cast<double>(p.trailing_probes);
      if (rate < config_.hit_rate_floor &&
          trailing_rate >= config_.hit_rate_ok) {
        std::string detail = "hits=";
        detail += std::to_string(p.window_hits);
        detail += "/";
        detail += std::to_string(p.window_probes);
        detail += " trailing_rate_milli=";
        detail += std::to_string(
            static_cast<std::int64_t>(trailing_rate * 1000.0));
        Fire("cache-collapse", t, /*cluster=*/false,
             static_cast<std::int64_t>(rate * 1000.0),
             static_cast<std::int64_t>(config_.hit_rate_floor * 1000.0),
             std::move(detail));
      }
    }
    p.trailing_hits += p.window_hits;
    p.trailing_probes += p.window_probes;
    p.window_hits = 0;
    p.window_probes = 0;
  }
  ++windows_closed_;
}

void Incidents::OpSample(const char* cls, TrackId track,
                         std::int64_t latency_ns) {
  RollTo(sim_->now());
  const int idx = ClassIndex(cls);
  ClassState& c = classes_[static_cast<std::size_t>(idx)];
  c.cluster.cur.Record(latency_ns);
  if (track >= c.per_track.size()) c.per_track.resize(track + 1);
  c.per_track[track].Record(latency_ns);
  for (SloState& s : slos_) {
    if (s.cls == idx) s.Observe(latency_ns);
  }
}

void Incidents::QueueSample(TrackId track, std::int64_t depth) {
  RollTo(sim_->now());
  if (depth >= config_.queue_watermark) {
    Fire("queue-depth", track, /*cluster=*/false, depth,
         config_.queue_watermark, "");
  }
}

void Incidents::FsyncSample(TrackId track, std::int64_t dur_ns,
                            std::int64_t batch) {
  RollTo(sim_->now());
  if (dur_ns >= config_.fsync_stall_ns) {
    std::string detail = "batch=";
    detail += std::to_string(batch);
    Fire("fsync-stall", track, /*cluster=*/false, dur_ns,
         config_.fsync_stall_ns, std::move(detail));
  }
}

void Incidents::LeaderSample(TrackId track, std::int64_t epoch) {
  RollTo(sim_->now());
  Fire("leader-change", track, /*cluster=*/false, epoch, 0, "");
}

void Incidents::ProbeSample(TrackId track, bool hit) {
  RollTo(sim_->now());
  if (track >= probes_.size()) probes_.resize(track + 1);
  ProbeState& p = probes_[track];
  ++p.window_probes;
  if (hit) ++p.window_hits;
}

bool Incidents::InCooldown(const char* type, TrackId track, bool cluster) {
  const sim::SimTime now = sim_->now();
  for (Cooldown& c : cooldowns_) {
    if (c.track == track && c.cluster == cluster &&
        (c.type == type || std::strcmp(c.type, type) == 0)) {
      if (now - c.last < config_.cooldown_ns) return true;
      c.last = now;
      return false;
    }
  }
  cooldowns_.push_back(Cooldown{type, track, cluster, now});
  return false;
}

std::string Incidents::NodeName(TrackId track, bool cluster) const {
  if (cluster) return "cluster";
  if (tracer_ != nullptr && track < tracer_->tracks().size()) {
    return tracer_->tracks()[track];
  }
  return "track" + std::to_string(track);
}

std::string Incidents::AnomalyJson(const Anomaly& a) const {
  std::string out = "{\"seq\":";
  out += std::to_string(a.seq);
  out += ",\"t_ns\":";
  out += std::to_string(a.t);
  out += ",\"window_ns\":";
  out += std::to_string(config_.window_ns);
  out += ",\"type\":";
  AppendJsonString(&out, a.type);
  out += ",\"node\":";
  AppendJsonString(&out, a.node);
  out += ",\"value\":";
  out += std::to_string(a.value);
  out += ",\"threshold\":";
  out += std::to_string(a.threshold);
  out += ",\"detail\":";
  AppendJsonString(&out, a.detail);
  out += '}';
  return out;
}

void Incidents::Fire(const char* type, TrackId track, bool cluster,
                     std::int64_t value, std::int64_t threshold,
                     std::string detail) {
  if (InCooldown(type, track, cluster)) {
    ++suppressed_;
    return;
  }
  Anomaly a;
  a.seq = static_cast<std::uint64_t>(anomalies_.size()) + 1;
  a.t = sim_->now();
  a.type = type;
  a.node = NodeName(track, cluster);
  a.value = value;
  a.threshold = threshold;
  a.detail = std::move(detail);
  if (!config_.dump_dir.empty() && dumps_written_ < config_.max_dumps &&
      tracer_ != nullptr) {
    char name[80];
    std::snprintf(name, sizeof(name), "/dump_%03" PRIu64 "_%s.json", a.seq,
                  type);
    const std::string path = config_.dump_dir + name;
    const std::string json = tracer_->DumpJson(AnomalyJson(a));
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      const bool ok =
          std::fwrite(json.data(), 1, json.size(), f) == json.size();
      if (std::fclose(f) == 0 && ok) {
        a.dump_path = path;
        ++dumps_written_;
      }
    }
  }
  anomalies_.push_back(std::move(a));
}

void Incidents::Flush() {
  if (!armed_ || !window_open_) return;
  CloseWindow();
  ++cur_window_;
}

std::string Incidents::ReportJson() const {
  std::string out = "{\"anomalies\":[";
  bool first = true;
  for (const Anomaly& a : anomalies_) {
    if (!first) out += ',';
    first = false;
    out += AnomalyJson(a);
    // Splice the dump file into the rendered object when present. Only the
    // basename: the report must stay byte-identical when two runs write
    // their dumps into different directories (the determinism gate does).
    if (!a.dump_path.empty()) {
      const auto slash = a.dump_path.find_last_of('/');
      out.pop_back();  // '}'
      out += ",\"dump\":";
      AppendJsonString(&out, slash == std::string::npos
                            ? a.dump_path
                            : a.dump_path.substr(slash + 1));
      out += '}';
    }
  }
  out += "],\"suppressed\":";
  out += std::to_string(suppressed_);
  out += ",\"windows_closed\":";
  out += std::to_string(windows_closed_);
  out += ",\"burn_alerts\":";
  out += std::to_string(burn_alerts_);
  out += ",\"slo\":[";
  first = true;
  for (const SloState& s : slos_) {
    if (!first) out += ',';
    first = false;
    const std::uint64_t n = s.good + s.bad;
    const double bad_fraction =
        n == 0 ? 0.0
               : static_cast<double>(s.bad) / static_cast<double>(n);
    out += "{\"op\":";
    AppendJsonString(&out, s.spec.op);
    out += ",\"target_ns\":";
    out += std::to_string(s.spec.target_ns);
    out += ",\"budget\":";
    out += Dbl(s.spec.budget);
    out += ",\"good\":";
    out += std::to_string(s.good);
    out += ",\"bad\":";
    out += std::to_string(s.bad);
    out += ",\"bad_fraction\":";
    out += Dbl(bad_fraction);
    out += ",\"met\":";
    out += bad_fraction <= s.spec.budget ? "true" : "false";
    out += ",\"max_burn\":";
    out += Dbl(s.max_burn);
    out += ",\"max_burn_window\":";
    out += std::to_string(s.max_burn_window);
    out += '}';
  }
  out += "],\"classes\":[";
  first = true;
  for (const ClassState& c : classes_) {
    if (!first) out += ',';
    first = false;
    out += "{\"op\":";
    AppendJsonString(&out, c.name);
    out += ",\"nodes\":[";
    bool first_node = true;
    for (TrackId t = 0; t < c.per_track.size(); ++t) {
      const Log2Hist& h = c.per_track[t];
      if (h.total == 0) continue;
      if (!first_node) out += ',';
      first_node = false;
      out += "{\"node\":";
      AppendJsonString(&out, NodeName(t, false));
      out += ",\"count\":";
      out += std::to_string(h.total);
      out += ",\"mean_ns\":";
      out += std::to_string(h.sum / static_cast<std::int64_t>(h.total));
      out += ",\"p50_ns\":";
      out += std::to_string(h.Quantile(0.5));
      out += ",\"p99_ns\":";
      out += std::to_string(h.Quantile(0.99));
      out += ",\"p999_ns\":";
      out += std::to_string(h.Quantile(0.999));
      out += ",\"max_ns\":";
      out += std::to_string(h.max);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace dufs::obs
