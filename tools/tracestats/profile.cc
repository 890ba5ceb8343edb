#include "profile.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "common/json_text.h"

namespace dufs::tracestats {

namespace {

constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint64_t>::max();

// Plain decimal digits only: no sign, no blanks, nothing past 2^64 - 1.
bool ParseCount(const std::string& digits, std::uint64_t* out) {
  *out = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (*out > (kMaxCount - d) / 10) return false;
    *out = *out * 10 + d;
  }
  return true;
}

// Top-K rows of `a.frames` by the chosen field (self or total), sample
// count descending then name. A negative K keeps everything, as in
// Analyze.
std::vector<const FrameStats*> TopBy(const Aggregate& a, bool by_self,
                                     int top_k) {
  std::vector<const FrameStats*> rows;
  rows.reserve(a.frames.size());
  for (const FrameStats& f : a.frames) rows.push_back(&f);
  std::sort(rows.begin(), rows.end(),
            [by_self](const FrameStats* x, const FrameStats* y) {
              const std::uint64_t xv = by_self ? x->self : x->total;
              const std::uint64_t yv = by_self ? y->self : y->total;
              if (xv != yv) return xv > yv;
              return x->name < y->name;
            });
  if (top_k >= 0 && rows.size() > static_cast<std::size_t>(top_k)) {
    rows.resize(static_cast<std::size_t>(top_k));
  }
  return rows;
}

}  // namespace

bool ParseFolded(const std::string& text, Profile* out, std::string* error) {
  out->stacks.clear();
  out->total = 0;
  std::size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    ++lineno;
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    auto fail = [&](const char* what) {
      *error = "line " + std::to_string(lineno) + ": " + what;
      return false;
    };
    // Last space splits the path from the count.
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      return fail("want \"a;b;c N\"");
    }
    Stack s;
    if (!ParseCount(line.substr(sp + 1), &s.count)) {
      return fail("bad sample count");
    }
    if (out->total > kMaxCount - s.count) {
      return fail("sample total overflows");
    }
    std::size_t start = 0;
    while (start <= sp) {
      std::size_t semi = line.find(';', start);
      if (semi == std::string::npos || semi > sp) semi = sp;
      if (semi == start) return fail("empty frame name");
      s.frames.push_back(line.substr(start, semi - start));
      start = semi + 1;
    }
    out->total += s.count;
    out->stacks.push_back(std::move(s));
  }
  return true;
}

void AggregateProfile(const Profile& p, Aggregate* out) {
  out->total_samples = p.total;
  out->frames.clear();
  std::map<std::string, FrameStats> by_name;
  for (const Stack& s : p.stacks) {
    if (s.frames.empty()) continue;
    by_name[s.frames.back()].self += s.count;
    // `total` counts each frame once per stack — a recursive name must not
    // double-count the stack it repeats on.
    std::set<std::string> seen;
    for (const std::string& f : s.frames) {
      if (seen.insert(f).second) by_name[f].total += s.count;
    }
  }
  out->frames.reserve(by_name.size());
  for (auto& [name, fs] : by_name) {
    fs.name = name;
    out->frames.push_back(std::move(fs));
  }
}

std::string ProfileToText(const Aggregate& a, int top_k) {
  std::string out;
  char buf[200];
  std::snprintf(buf, sizeof(buf), "profile: %llu samples, %zu frames\n",
                static_cast<unsigned long long>(a.total_samples),
                a.frames.size());
  out += buf;
  for (const bool by_self : {true, false}) {
    out += by_self ? "\ntop frames by self:\n" : "\ntop frames by total:\n";
    for (const FrameStats* f : TopBy(a, by_self, top_k)) {
      const std::uint64_t v = by_self ? f->self : f->total;
      std::snprintf(buf, sizeof(buf), " %12llu  %6.2f%%\n",
                    static_cast<unsigned long long>(v),
                    a.total_samples == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(v) /
                              static_cast<double>(a.total_samples));
      // Unformatted, so a long frame name cannot truncate the line.
      out += "  " + f->name;
      out.append(f->name.size() < 40 ? 40 - f->name.size() : 0, ' ');
      out += buf;
    }
  }
  return out;
}

std::string ProfileToJson(const Aggregate& a, int top_k) {
  std::string out = "{\"samples\":" + std::to_string(a.total_samples) +
                    ",\"frames\":[";
  bool first = true;
  for (const FrameStats* f : TopBy(a, /*by_self=*/true, top_k)) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, f->name);
    out += ",\"self\":" + std::to_string(f->self) +
           ",\"total\":" + std::to_string(f->total) + "}";
  }
  out += "]}";
  return out;
}

const char* FrameDirection(const std::string& name) {
  if (name.rfind("engine.", 0) == 0 || name == "unattributed") {
    return "lower";
  }
  return "stable";
}

}  // namespace dufs::tracestats
