#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

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
  if (!enabled_) return;
  records_.push_back(Record{name, cat, start, dur, trace,
                            static_cast<std::uint32_t>(args_.size()),
                            static_cast<std::uint32_t>(args.size()), track});
  args_.insert(args_.end(), args.begin(), args.end());
}

std::vector<Tracer::Event> Tracer::events() const {
  std::vector<Event> out;
  out.reserve(records_.size());
  for (const Record& rec : records_) {
    out.push_back(Event{rec.track, rec.name, rec.cat, rec.start, rec.dur,
                        rec.trace, ArgsOf(rec)});
  }
  return out;
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
  auto event = [&](const Record& rec, std::span<const Arg> args) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(rec.track + 1) +
           ",\"name\":\"";
    AppendJsonEscaped(&out, rec.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, rec.cat);
    out += "\",\"ts\":";
    AppendJsonMicros(out, rec.start);
    out += ",\"dur\":";
    AppendJsonMicros(out, rec.dur);
    out += ",\"args\":{";
    if (dump) out += "\"seq\":" + std::to_string(&rec - records_.data() + 1);
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
  if (!dump) {
    for (const Record& rec : records_) event(rec, ArgsOf(rec));
  } else {
    // One backward pass finds each track's newest kTrackCapacity records.
    std::vector<std::vector<std::uint32_t>> newest;  // per track, newest first
    for (std::size_t i = records_.size(); i-- > 0;) {
      const TrackId t = records_[i].track;
      if (t >= newest.size()) newest.resize(t + 1);
      if (newest[t].size() < kTrackCapacity) {
        newest[t].push_back(static_cast<std::uint32_t>(i));
      }
    }
    for (const auto& picked : newest) {
      for (auto it = picked.rbegin(); it != picked.rend(); ++it) {
        const Record& rec = records_[*it];
        const Arg* wait = nullptr;  // splits nic-wait from wire in the dump
        for (const Arg& a : ArgsOf(rec)) {
          if (!a.is_string && std::strcmp(a.key, "wait_ns") == 0) wait = &a;
        }
        event(rec, std::span<const Arg>(wait, wait != nullptr ? 1 : 0));
      }
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
