#include "profstats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "common/json_text.h"

namespace dufs::profstats {

namespace {

double Share(std::uint64_t self, std::uint64_t total) {
  return total == 0 ? 0.0 : static_cast<double>(self) /
                                static_cast<double>(total);
}

// Sort key shared by Diff and CompareProfiles: biggest movement first, name
// as the deterministic tiebreak.
template <typename Row>
void SortByDelta(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    const double da = std::fabs(a.delta), db = std::fabs(b.delta);
    if (da != db) return da > db;
    return a.name < b.name;
  });
}

}  // namespace

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  out->clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) *error = "read error on " + path;
  return ok;
}

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
    // Last space splits the path from the count.
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      *error = "line " + std::to_string(lineno) + ": want \"a;b;c N\"";
      return false;
    }
    Stack s;
    char* end = nullptr;
    s.count = std::strtoull(line.c_str() + sp + 1, &end, 10);
    if (end == nullptr || *end != '\0') {
      *error = "line " + std::to_string(lineno) + ": bad sample count";
      return false;
    }
    std::size_t start = 0;
    while (start <= sp) {
      std::size_t semi = line.find(';', start);
      if (semi == std::string::npos || semi > sp) semi = sp;
      if (semi == start) {
        *error = "line " + std::to_string(lineno) + ": empty frame name";
        return false;
      }
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
    FrameStats& leaf = by_name[s.frames.back()];
    leaf.self += s.count;
    // `total` counts each frame once per stack — a recursive name must not
    // double-count the stack it repeats on.
    std::set<std::string> seen;
    for (const std::string& f : s.frames) {
      if (!seen.insert(f).second) continue;
      by_name[f].total += s.count;
    }
  }
  out->frames.reserve(by_name.size());
  for (auto& [name, fs] : by_name) {
    fs.name = name;
    out->frames.push_back(std::move(fs));
  }
}

namespace {

// Top-K rows of `a.frames` by the chosen field (self or total), sample
// count descending then name. K <= 0 keeps everything.
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
  if (top_k > 0 && rows.size() > static_cast<std::size_t>(top_k)) {
    rows.resize(static_cast<std::size_t>(top_k));
  }
  return rows;
}

}  // namespace

std::string ReportText(const Aggregate& a, int top_k) {
  std::string out;
  char buf[200];
  std::snprintf(buf, sizeof(buf), "profile: %llu samples, %zu frames\n",
                static_cast<unsigned long long>(a.total_samples),
                a.frames.size());
  out += buf;
  for (const bool by_self : {true, false}) {
    std::snprintf(buf, sizeof(buf), "\ntop frames by %s:\n",
                  by_self ? "self" : "total");
    out += buf;
    for (const FrameStats* f : TopBy(a, by_self, top_k)) {
      const std::uint64_t v = by_self ? f->self : f->total;
      std::snprintf(buf, sizeof(buf), "  %-40s %12llu  %6.2f%%\n",
                    f->name.c_str(), static_cast<unsigned long long>(v),
                    100.0 * Share(v, a.total_samples));
      out += buf;
    }
  }
  return out;
}

std::string ReportJson(const Aggregate& a, int top_k) {
  std::string out = "{\"samples\":" + std::to_string(a.total_samples) +
                    ",\"frames\":[";
  bool first = true;
  for (const FrameStats* f : TopBy(a, /*by_self=*/true, top_k)) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, f->name);
    out += "\",\"self\":" + std::to_string(f->self) +
           ",\"total\":" + std::to_string(f->total) + "}";
  }
  out += "]}";
  return out;
}

void Diff(const Aggregate& old_a, const Aggregate& new_a, DiffResult* out) {
  out->old_total = old_a.total_samples;
  out->new_total = new_a.total_samples;
  out->rows.clear();
  std::map<std::string, DiffRow> rows;
  for (const FrameStats& f : old_a.frames) {
    rows[f.name].old_share = Share(f.self, old_a.total_samples);
  }
  for (const FrameStats& f : new_a.frames) {
    rows[f.name].new_share = Share(f.self, new_a.total_samples);
  }
  for (auto& [name, row] : rows) {
    row.name = name;
    row.delta = row.new_share - row.old_share;
    out->rows.push_back(std::move(row));
  }
  SortByDelta(&out->rows);
}

std::string DiffToText(const DiffResult& d, int top_k) {
  std::string out;
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "profile diff: %llu -> %llu samples (self-share, pts)\n",
                static_cast<unsigned long long>(d.old_total),
                static_cast<unsigned long long>(d.new_total));
  out += buf;
  int shown = 0;
  for (const DiffRow& r : d.rows) {
    if (top_k > 0 && shown >= top_k) break;
    ++shown;
    std::snprintf(buf, sizeof(buf), "  %-40s %6.2f%% -> %6.2f%%  %+6.2f\n",
                  r.name.c_str(), 100.0 * r.old_share, 100.0 * r.new_share,
                  100.0 * r.delta);
    out += buf;
  }
  return out;
}

const char* FrameDirection(const std::string& name) {
  // Scheduler/profiler overhead must not creep up; everything else is
  // workload attribution where any drift signals a distribution change.
  if (name.rfind("engine.", 0) == 0 || name == "unattributed") {
    return "lower";
  }
  return "stable";
}

void CompareProfiles(const Aggregate& old_a, const Aggregate& new_a,
                     const CompareOptions& opts, CompareResult* out) {
  out->ok = true;
  out->regressions = 0;
  out->rows.clear();
  DiffResult d;
  Diff(old_a, new_a, &d);
  for (DiffRow& r : d.rows) {
    CompareRow row;
    row.name = std::move(r.name);
    row.direction = FrameDirection(row.name);
    row.old_share = r.old_share;
    row.new_share = r.new_share;
    row.delta = r.delta;
    const bool noise =
        row.old_share < opts.min_share && row.new_share < opts.min_share;
    if (!noise) {
      if (row.direction[0] == 'l') {  // "lower": only growth regresses
        row.regressed = row.delta > opts.tolerance;
      } else {  // "stable": drift either way regresses
        row.regressed = std::fabs(row.delta) > opts.tolerance;
      }
    }
    if (row.regressed) {
      ++out->regressions;
      out->ok = false;
    }
    out->rows.push_back(std::move(row));
  }
}

std::string CompareToText(const CompareResult& r,
                          const CompareOptions& opts) {
  std::string out;
  char buf[280];
  std::snprintf(buf, sizeof(buf),
                "Profile comparison (tolerance %.1f pts, min share %.1f%%): "
                "%s (%d regressions, %zu frames)\n",
                100.0 * opts.tolerance, 100.0 * opts.min_share,
                r.ok ? "OK" : "FAILED", r.regressions, r.rows.size());
  out += buf;
  for (const CompareRow& row : r.rows) {
    std::snprintf(buf, sizeof(buf),
                  "%-10s %-40s %6.2f%% -> %6.2f%%  %+6.2f (%s)\n",
                  row.regressed ? "REGRESSION" : "ok", row.name.c_str(),
                  100.0 * row.old_share, 100.0 * row.new_share,
                  100.0 * row.delta, row.direction.c_str());
    out += buf;
  }
  return out;
}

std::string CompareToJson(const CompareResult& r,
                          const CompareOptions& opts) {
  std::string out = "{\"ok\":";
  out += r.ok ? "true" : "false";
  out += ",\"regressions\":" + std::to_string(r.regressions);
  out += ",\"tolerance\":";
  AppendJsonNumber(&out, opts.tolerance);
  out += ",\"min_share\":";
  AppendJsonNumber(&out, opts.min_share);
  out += ",\"rows\":[";
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const CompareRow& row = r.rows[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, row.name);
    out += "\",\"direction\":\"" + row.direction + "\",\"old_share\":";
    AppendJsonNumber(&out, row.old_share);
    out += ",\"new_share\":";
    AppendJsonNumber(&out, row.new_share);
    out += ",\"delta\":";
    AppendJsonNumber(&out, row.delta);
    out += ",\"regressed\":";
    out += row.regressed ? "true" : "false";
    out += "}";
  }
  out += "]}";
  return out;
}

std::string CompareToMarkdown(const CompareResult& r,
                              const CompareOptions& opts, int top_k) {
  std::string out;
  char buf[280];
  std::snprintf(buf, sizeof(buf),
                "### cpu-profile gate: %s (%d regressions, tolerance %.1f "
                "pts)\n\n",
                r.ok ? "PASS" : "FAIL", r.regressions,
                100.0 * opts.tolerance);
  out += buf;
  out += "| status | frame | old self | new self | drift (pts) | "
         "direction |\n";
  out += "|---|---|---:|---:|---:|---|\n";
  // Regressions always make the table; the rest fills up to top_k rows.
  int shown = 0;
  for (const CompareRow& row : r.rows) {
    if (!row.regressed && top_k > 0 && shown >= top_k) continue;
    ++shown;
    std::snprintf(buf, sizeof(buf),
                  "| %s | `%s` | %.2f%% | %.2f%% | %+.2f | %s |\n",
                  row.regressed ? "REGRESSION" : "ok", row.name.c_str(),
                  100.0 * row.old_share, 100.0 * row.new_share,
                  100.0 * row.delta, row.direction.c_str());
    out += buf;
  }
  return out;
}

}  // namespace dufs::profstats
