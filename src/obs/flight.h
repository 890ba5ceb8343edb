// Flight recorder — an always-on, bounded ring of recent trace spans.
//
// The tracer's full event log (trace.h) is opt-in because it grows without
// bound and its ids perturb modeled message sizes; the flight recorder is the
// production-style complement: every node keeps the last `capacity` completed
// spans in a fixed-size ring, cheap enough to leave enabled in untraced
// benchmark runs. When an anomaly detector (incident.h) fires, the rings are
// serialized to a Chrome-trace-compatible dump that tools/tracestats can run
// its exactly-once latency decomposition over ("the p99.9 spike is 86%
// fsync").
//
// Hot-path rules: records are POD, names/cats are `const char*` literals
// owned by the call sites, rings are flat pre-reserved vectors, and nothing
// on the record path touches std::string or node-based containers. The only
// allocations after warm-up are the one-time per-track ring reservations;
// tests/alloc/alloc_gate_test.cc holds Admit to zero heap allocations once
// they are made. Dump serialization is the cold path and builds strings.
//
// Determinism: records carry sim timestamps and a global admission sequence
// number; ring contents depend only on the simulated event order, so two
// identically-seeded runs dump byte-identical JSON (asserted by the slo_gate
// ctest).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dufs::obs {

using TraceId = std::uint64_t;
using TrackId = std::uint32_t;

class Tracer;  // trace.h

class FlightRecorder {
 public:
  // One completed span. `wait_ns` preserves the queueing split that the full
  // tracer carries as a span arg (nic-tx/nic-rx); -1 = not applicable.
  struct Record {
    const char* name = "";
    const char* cat = "";
    sim::SimTime start = 0;
    sim::Duration dur = 0;
    TraceId trace = 0;
    std::int64_t wait_ns = -1;
    std::uint64_t seq = 0;
  };

  // Per-track span budget; takes effect for rings that have not yet admitted
  // a record. Default 512 spans/track (~24 KiB) covers several anomaly
  // windows of a busy node.
  void SetCapacity(std::uint32_t per_track) {
    if (per_track > 0) capacity_ = per_track;
  }
  std::uint32_t capacity() const { return capacity_; }

  // Admit one span. Hot path: bounds check + POD copy; the ring for a track
  // is reserved once on its first record.
  void Admit(TrackId track, const char* name, const char* cat,
             sim::SimTime start, sim::Duration dur, TraceId trace,
             std::int64_t wait_ns) {
    if (track >= rings_.size()) rings_.resize(track + 1);
    Ring& r = rings_[track];
    const Record rec{name, cat, start, dur, trace, wait_ns, ++seq_};
    if (r.slots.size() < capacity_) {
      if (r.slots.capacity() < capacity_) r.slots.reserve(capacity_);
      r.slots.push_back(rec);
    } else {
      r.slots[r.next] = rec;
      ++r.evicted;
      r.next = r.next + 1 == capacity_ ? 0 : r.next + 1;
    }
  }

  std::uint64_t admitted() const { return seq_; }
  std::uint64_t evicted(TrackId track) const {
    return track < rings_.size() ? rings_[track].evicted : 0;
  }
  std::uint32_t size(TrackId track) const {
    return track < rings_.size()
               ? static_cast<std::uint32_t>(rings_[track].slots.size())
               : 0;
  }

  // Visit a track's ring oldest-to-newest (unit tests + dump share this).
  template <typename Fn>
  void ForEach(TrackId track, Fn&& fn) const {
    if (track >= rings_.size()) return;
    const Ring& r = rings_[track];
    if (r.slots.size() < capacity_) {
      for (const Record& rec : r.slots) fn(rec);
      return;
    }
    for (std::uint32_t i = r.next; i < capacity_; ++i) fn(r.slots[i]);
    for (std::uint32_t i = 0; i < r.next; ++i) fn(r.slots[i]);
  }

  std::uint32_t track_count() const {
    return static_cast<std::uint32_t>(rings_.size());
  }

  // Cold path: serialize every ring as Chrome trace_event JSON, preceded by
  // the caller's anomaly object (pre-rendered JSON; empty = omitted), with
  // the same track metadata and ts/dur formatting as Tracer::ToChromeJson so
  // tracestats parses dumps and full traces identically. Tracks are emitted
  // in id order, records oldest-to-newest — byte-stable.
  std::string DumpJson(const Tracer& tracer,
                       const std::string& anomaly_json) const;

  void Clear() {
    rings_.clear();
    seq_ = 0;
  }

 private:
  struct Ring {
    std::vector<Record> slots;
    std::uint32_t next = 0;  // oldest slot once the ring is full
    std::uint64_t evicted = 0;
  };

  std::uint32_t capacity_ = 512;
  std::uint64_t seq_ = 0;
  std::vector<Ring> rings_;
};

}  // namespace dufs::obs
