// Dump serialization for the flight recorder — cold path, runs only when an
// anomaly fires (or a test asks). String building is allowed here; the hot
// admission path lives entirely in flight.h.
#include "obs/flight.h"

#include <string>

#include "common/json_text.h"
#include "obs/trace.h"

namespace dufs::obs {

std::string FlightRecorder::DumpJson(const Tracer& tracer,
                                     const std::string& anomaly_json) const {
  std::string out = "{";
  if (!anomaly_json.empty()) {
    out += "\"anomaly\":";
    out += anomaly_json;
    out += ',';
  }
  out += "\"traceEvents\":[";
  bool first = true;
  // Same track metadata as Tracer::ToChromeJson: tracestats and trace
  // viewers resolve tids to node names identically for dumps and traces.
  const auto& tracks = tracer.tracks();
  for (TrackId i = 0; i < tracks.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(i + 1) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendJsonEscaped(&out, tracks[i]);
    out += "\"}}";
  }
  for (TrackId t = 0; t < rings_.size(); ++t) {
    ForEach(t, [&](const Record& rec) {
      if (!first) out += ',';
      first = false;
      out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(t + 1) +
             ",\"name\":\"";
      AppendJsonEscaped(&out, rec.name);
      out += "\",\"cat\":\"";
      AppendJsonEscaped(&out, rec.cat);
      out += "\",\"ts\":";
      detail::AppendJsonMicros(out, rec.start);
      out += ",\"dur\":";
      detail::AppendJsonMicros(out, rec.dur);
      out += ",\"args\":{\"seq\":" + std::to_string(rec.seq);
      if (rec.trace != 0) {
        out += ",\"trace\":" + std::to_string(rec.trace);
      }
      if (rec.wait_ns >= 0) {
        out += ",\"wait_ns\":" + std::to_string(rec.wait_ns);
      }
      out += "}}";
    });
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

}  // namespace dufs::obs
