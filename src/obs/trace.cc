#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/json_text.h"
#include "obs/obs.h"

namespace dufs::obs {

namespace {

// Chrome traces use microsecond timestamps; the sim is nanosecond-grained.
// Print exactly three decimals ("12.345") so nothing is lost and equal
// inputs always format identically (no float rounding involved).
void AppendJsonMicros(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  out += buf;
}

}  // namespace

TrackId Tracer::Track(const std::string& name) {
  for (TrackId i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return i;
  }
  tracks_.push_back(name);
  return static_cast<TrackId>(tracks_.size() - 1);
}

void Tracer::Complete(TrackId track, const char* name, const char* cat,
                      sim::SimTime start, sim::Duration dur, TraceId trace,
                      std::span<const Arg> args) {
  if (!recording()) return;
  Record rec{name, cat, start, dur, trace, ++seq_};
  for (const Arg& a : args) {
    if (!a.is_string && std::strcmp(a.key, "wait_ns") == 0) rec.wait_ns = a.num;
  }
  if (enabled_) {
    rec.args = static_cast<std::uint32_t>(args_.size());
    rec.nargs = static_cast<std::uint32_t>(args.size());
    args_.insert(args_.end(), args.begin(), args.end());
    ++traced_;
  }
  if (track >= rings_.size()) rings_.resize(track + 1);
  Ring& r = rings_[track];
  if (traced_ > 0) {
    // Unbounded from the first traced record on: unwrap, then append.
    if (r.oldest != 0) {
      std::rotate(r.recs.begin(), r.recs.begin() + r.oldest, r.recs.end());
      r.oldest = 0;
    }
    r.recs.push_back(rec);
  } else if (r.recs.size() < kTrackCapacity) {
    if (r.recs.capacity() < kTrackCapacity) r.recs.reserve(kTrackCapacity);
    r.recs.push_back(rec);
  } else {
    r.recs[r.oldest] = rec;
    r.oldest = r.oldest + 1 == kTrackCapacity ? 0 : r.oldest + 1;
  }
}

std::vector<std::pair<TrackId, const Tracer::Record*>> Tracer::Traced()
    const {
  std::vector<std::pair<TrackId, const Record*>> out;
  out.reserve(traced_);
  for (TrackId t = 0; t < rings_.size(); ++t) {
    ForEach(t, [&](const Record& rec) {
      if (rec.args != kUntraced) out.emplace_back(t, &rec);
    });
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second->seq < b.second->seq;
  });
  return out;
}

std::vector<Tracer::Event> Tracer::events() const {
  std::vector<Event> out;
  out.reserve(traced_);
  for (const auto& [track, rec] : Traced()) {
    const auto first = args_.begin() + rec->args;
    out.push_back(Event{track, rec->name, rec->cat, rec->start, rec->dur,
                        rec->trace, {first, first + rec->nargs}});
  }
  return out;
}

void Tracer::Clear() {
  rings_.clear();
  args_.clear();
  seq_ = 0;
  traced_ = 0;
}

std::string Tracer::Json(const std::string& anomaly_json, bool dump) const {
  std::string out = "{";
  if (!anomaly_json.empty()) {
    out += "\"anomaly\":";
    out += anomaly_json;
    out += ',';
  }
  out += "\"traceEvents\":[";
  bool first = true;
  // Metadata first: name each track so Perfetto shows node names instead of
  // bare tids. pid is always 1 (one simulated cluster), tid = track + 1
  // (tid 0 renders oddly in some viewers).
  for (TrackId i = 0; i < tracks_.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(i + 1) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendJsonEscaped(&out, tracks_[i]);
    out += "\"}}";
  }
  auto event = [&](TrackId track, const Record& rec,
                   std::span<const Arg> args) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(track + 1) +
           ",\"name\":\"";
    AppendJsonEscaped(&out, rec.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, rec.cat);
    out += "\",\"ts\":";
    AppendJsonMicros(out, rec.start);
    out += ",\"dur\":";
    AppendJsonMicros(out, rec.dur);
    out += ",\"args\":{";
    if (dump) out += "\"seq\":" + std::to_string(rec.seq);
    if (rec.trace != 0) {
      if (out.back() != '{') out += ',';
      out += "\"trace\":" + std::to_string(rec.trace);
    }
    for (const Arg& a : args) {
      if (out.back() != '{') out += ',';
      out += '"';
      AppendJsonEscaped(&out, a.key);
      out += "\":";
      if (a.is_string) {
        out += '"';
        AppendJsonEscaped(&out, a.str);
        out += '"';
      } else {
        out += std::to_string(a.num);
      }
    }
    out += "}}";
  };
  if (dump) {
    for (TrackId t = 0; t < rings_.size(); ++t) {
      const std::size_t held = size(t);
      std::size_t skip = held > kTrackCapacity ? held - kTrackCapacity : 0;
      ForEach(t, [&](const Record& rec) {
        if (skip > 0) {
          --skip;
          return;
        }
        const Arg wait{"wait_ns", rec.wait_ns};
        event(t, rec, std::span<const Arg>(&wait, rec.wait_ns >= 0 ? 1 : 0));
      });
    }
  } else {
    for (const auto& [track, rec] : Traced()) {
      event(track, *rec,
            std::span<const Arg>(args_).subspan(rec->args, rec->nargs));
    }
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

Span::Span(const NodeObs& obs, Name name, Name cat)
    : Span(obs.tracer, obs.track, name, cat) {}

Span Span::Root(const NodeObs& obs, Name name, Name cat) {
  // Unbound: the span still contributes its profiler frame (the ctor pushes
  // it before the bound check), but must not burn a trace id.
  const bool bound = obs.tracer != nullptr && obs.tracer->bound();
  Span s(obs.tracer, obs.track, name, cat, bound ? obs.tracer->NewTrace() : 0);
  if (s.active()) {
    s.root_ = true;
    s.Arm();
  }
  return s;
}

void Span::Emit() {
  const sim::SimTime end = tracer_->now();
  tracer_->Complete(track_, name_, cat_, start_, end - start_, trace_, args_);
  if (root_ && tracer_->current() == trace_) tracer_->SetCurrent(0);
  tracer_ = nullptr;
}

}  // namespace dufs::obs
