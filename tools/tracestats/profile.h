// Folded-stack CPU profiles, the --profile exports (DESIGN.md §14):
// flamegraph.pl's text, one `a;b;c N` line per distinct stack, sample count
// last. Parsing, per-frame aggregation and the top-N report are
// deterministic: identical inputs produce byte-identical reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dufs::tracestats {

// One distinct stack (root first) and its sample count.
struct Stack {
  std::vector<std::string> frames;
  std::uint64_t count = 0;
};

struct Profile {
  std::vector<Stack> stacks;  // file order
  std::uint64_t total = 0;    // sum of counts
};

// False with a line-numbered message when a line has no count, an empty
// frame name, or a count that is not plain decimal digits within 64 bits,
// or when the counts' total does not fit 64 bits.
bool ParseFolded(const std::string& text, Profile* out, std::string* error);

// Per-frame rollup. `self` counts stacks where the frame is the leaf;
// `total` counts every stack the frame appears on (once per stack, even if
// the name repeats along the path).
struct FrameStats {
  std::string name;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};

struct Aggregate {
  std::uint64_t total_samples = 0;
  std::vector<FrameStats> frames;  // sorted by name
};

void AggregateProfile(const Profile& p, Aggregate* out);

// --folded: top-K tables by self and by total (at most K rows each; a
// negative K means all frames, as in Analyze).
std::string ProfileToText(const Aggregate& a, int top_k);
std::string ProfileToJson(const Aggregate& a, int top_k);

// The compare gate's direction for a frame: "lower" for overhead (engine.*,
// unattributed), which must not grow; "stable" for workload frames, where
// drift either way means the CPU distribution changed.
const char* FrameDirection(const std::string& name);

}  // namespace dufs::tracestats
