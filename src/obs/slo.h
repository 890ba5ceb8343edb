// Sliding-window quantile digests + SLO accounting on sim time.
//
// The metrics layer's LatencyHistogram (common/stats.h) is cumulative for
// the whole run; incident detection needs "the last few milliseconds vs the
// trailing few". This file provides the deterministic building blocks:
//
//  - Log2Hist: a fixed 64-bucket power-of-two histogram (count/sum/max) with
//    an upper-bound quantile. Integer-only, so merging and quantiles are
//    exactly reproducible across runs and platforms.
//  - SlidingDigest: the current window's Log2Hist plus a ring of the last K
//    closed windows. The incident engine (incident.h) decides when windows
//    close (globally aligned on sim time / window_ns) and calls Roll().
//  - SloSpec / SloState: a latency target + error budget per op class, with
//    exact good/bad counters (not histogram-derived) and a per-window burn
//    rate: (bad fraction in window) / budget. burn == 1 means the budget is
//    being consumed exactly at the allowed rate.
//
// Hot-path rules: fixed arrays and flat pre-sized vectors only; op-class
// names are `const char*` literals. tests/alloc/alloc_gate_test.cc holds an
// op sample within one window to zero heap allocations.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace dufs::obs {

struct Log2Hist {
  static constexpr int kBuckets = 64;

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;

  // Bucket b holds values in [2^(b-1), 2^b); bucket 0 holds v <= 0 (clock
  // quirks) and bucket 1 holds v == 1.
  static int BucketFor(std::int64_t v) {
    if (v <= 0) return 0;
    const int w = std::bit_width(static_cast<std::uint64_t>(v));
    return w < kBuckets ? w : kBuckets - 1;
  }
  // Inclusive upper bound of bucket b, the value a quantile reports.
  static std::int64_t UpperBound(int b) {
    if (b <= 0) return 0;
    if (b >= kBuckets - 1) return INT64_MAX;
    return (std::int64_t{1} << b) - 1;
  }

  void Record(std::int64_t v) {
    ++counts[static_cast<std::size_t>(BucketFor(v))];
    ++total;
    sum += v;
    if (v > max) max = v;
  }

  void Merge(const Log2Hist& other) {
    for (int i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
    total += other.total;
    sum += other.sum;
    if (other.max > max) max = other.max;
  }

  void Clear() {
    counts.fill(0);
    total = 0;
    sum = 0;
    max = 0;
  }

  // Upper bound of the bucket containing quantile q (0 < q <= 1); the exact
  // observed max for the top bucket in range. 0 when empty. Integer rank
  // arithmetic — no floating-point accumulation.
  std::int64_t Quantile(double q) const {
    if (total == 0) return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total));
    if (rank >= total) rank = total - 1;
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) {
        const std::int64_t ub = UpperBound(i);
        return max < ub ? max : ub;
      }
    }
    return max;
  }
};

// Current window plus a ring of the last `depth` closed windows.
class SlidingDigest {
 public:
  void Init(int depth) {
    ring_.assign(static_cast<std::size_t>(depth > 0 ? depth : 1), Log2Hist{});
    next_ = 0;
    closed_ = 0;
    cur.Clear();
  }

  // Close the current window into the trailing ring.
  void Roll() {
    ring_[next_] = cur;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++closed_;
    cur.Clear();
  }

  // Merge of every retained closed window (up to `depth`).
  Log2Hist TrailingMerged() const {
    Log2Hist out;
    const std::size_t n = trailing_count();
    for (std::size_t i = 0; i < n; ++i) out.Merge(ring_[i]);
    return out;
  }

  std::size_t trailing_count() const {
    return closed_ < ring_.size() ? static_cast<std::size_t>(closed_)
                                  : ring_.size();
  }
  std::uint64_t closed_windows() const { return closed_; }

  Log2Hist cur;

 private:
  std::vector<Log2Hist> ring_;
  std::size_t next_ = 0;
  std::uint64_t closed_ = 0;
};

// One SLO: ops of class `op` should finish within target_ns, with at most
// `budget` fraction of ops over target.
struct SloSpec {
  const char* op = "";      // class name literal (resolved by incident.h)
  std::int64_t target_ns = 0;
  double budget = 0.001;
};

// Exact accounting for one SLO over the run plus the open window.
struct SloState {
  SloSpec spec;
  int cls = -1;  // class index in the incident engine's registry

  std::uint64_t good = 0;  // run totals
  std::uint64_t bad = 0;
  std::uint64_t window_good = 0;  // open window
  std::uint64_t window_bad = 0;

  // Worst closed window, for the report.
  double max_burn = 0.0;
  std::uint64_t max_burn_window = 0;  // window ordinal of max_burn

  void Observe(std::int64_t latency_ns) {
    if (latency_ns > spec.target_ns) {
      ++bad;
      ++window_bad;
    } else {
      ++good;
      ++window_good;
    }
  }

  // Burn rate of the open window: bad-fraction / budget. 0 when idle.
  double WindowBurn() const {
    const std::uint64_t n = window_good + window_bad;
    if (n == 0 || spec.budget <= 0.0) return 0.0;
    return (static_cast<double>(window_bad) / static_cast<double>(n)) /
           spec.budget;
  }

  // Close the open window (ordinal `window_index`), tracking the worst.
  void Roll(std::uint64_t window_index) {
    const double burn = WindowBurn();
    if (burn > max_burn) {
      max_burn = burn;
      max_burn_window = window_index;
    }
    window_good = 0;
    window_bad = 0;
  }
};

}  // namespace dufs::obs
