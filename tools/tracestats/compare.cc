#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/json_text.h"

namespace dufs::tracestats {

namespace {

struct Metric {
  double value = 0.0;
  std::string better;  // "higher" or "lower"
};

bool LoadBaseline(const JsonValue& doc, const std::string& side,
                  std::map<std::string, Metric>* out, std::string* error) {
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    *error = side + " baseline has no \"metrics\" object";
    return false;
  }
  for (const auto& [key, v] : metrics->members) {
    const JsonValue* value = v.Find("value");
    const std::string better = v.GetString("better");
    if (value == nullptr || !value->is_number() ||
        (better != "higher" && better != "lower")) {
      *error = side + " baseline: metric " + key + " needs a numeric "
               "\"value\" and a \"better\" of \"higher\" or \"lower\"";
      return false;
    }
    (*out)[key] = Metric{value->number, better};
  }
  return true;
}

void AddRow(CompareResult* out, CompareRow row) {
  out->regressions += row.regressed ? 1 : 0;
  out->rows.push_back(std::move(row));
}

std::string Format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

bool CompareBaselines(const JsonValue& old_base, const JsonValue& new_base,
                      double tol, CompareResult* out, std::string* error) {
  *out = CompareResult{};
  out->tolerance = tol;
  std::map<std::string, Metric> olds, news;
  if (!LoadBaseline(old_base, "old", &olds, error) ||
      !LoadBaseline(new_base, "new", &news, error)) {
    return false;
  }
  for (const auto& [key, o] : olds) {
    CompareRow row{key, o.better, o.value};
    const auto it = news.find(key);
    if (it == news.end()) {
      row.mark = CompareRow::Mark::kMissing;
      row.regressed = true;
    } else {
      const double n = it->second.value;
      row.new_value = n;
      row.delta = o.value != 0.0 ? (n - o.value) / std::fabs(o.value)
                                 : (n == 0.0 ? 0.0 : 1.0);
      row.regressed = o.better == "higher" ? n < o.value * (1.0 - tol)
                                           : n > o.value * (1.0 + tol);
    }
    AddRow(out, std::move(row));
  }
  for (const auto& [key, n] : news) {
    if (olds.count(key) != 0) continue;
    CompareRow row{key, n.better, 0.0, n.value};
    row.mark = CompareRow::Mark::kNew;
    AddRow(out, std::move(row));
  }
  return true;
}

void CompareProfiles(const Aggregate& old_a, const Aggregate& new_a,
                     double tol, CompareResult* out) {
  *out = CompareResult{};
  out->profile = true;
  out->tolerance = tol;
  auto share = [](const Aggregate& a, const FrameStats& f) {
    return a.total_samples == 0 ? 0.0
                                : static_cast<double>(f.self) /
                                      static_cast<double>(a.total_samples);
  };
  std::map<std::string, CompareRow> by_name;
  for (const FrameStats& f : old_a.frames) {
    by_name[f.name].old_value = share(old_a, f);
  }
  for (const FrameStats& f : new_a.frames) {
    by_name[f.name].new_value = share(new_a, f);
  }
  std::vector<CompareRow> rows;
  for (auto& [name, row] : by_name) {
    row.name = name;
    row.direction = FrameDirection(name);
    row.delta = row.new_value - row.old_value;
    if (row.old_value >= kMinShare || row.new_value >= kMinShare) {
      row.regressed = row.direction == "lower"
                          ? row.delta > tol
                          : std::fabs(row.delta) > tol;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const CompareRow& a, const CompareRow& b) {
              const double da = std::fabs(a.delta), db = std::fabs(b.delta);
              if (da != db) return da > db;
              return a.name < b.name;
            });
  for (CompareRow& row : rows) AddRow(out, std::move(row));
}

bool Compare(const std::string& old_text, const std::string& new_text,
             double tol, CompareResult* out, std::string* error) {
  auto is_baseline = [](const std::string& text) {
    const std::size_t i = text.find_first_not_of(" \t\r\n");
    return i != std::string::npos && text[i] == '{';
  };
  const bool baseline = is_baseline(old_text);
  if (baseline != is_baseline(new_text)) {
    *error = std::string("old input is ") +
             (baseline ? "a baseline" : "a folded profile") +
             " but new input is not";
    return false;
  }
  auto fail = [error](const char* side) {
    *error = side + *error;
    return false;
  };
  if (baseline) {
    JsonValue old_doc, new_doc;
    if (!ParseJson(old_text, &old_doc, error)) return fail("old baseline: ");
    if (!ParseJson(new_text, &new_doc, error)) return fail("new baseline: ");
    return CompareBaselines(old_doc, new_doc, tol, out, error);
  }
  Profile old_p, new_p;
  if (!ParseFolded(old_text, &old_p, error)) return fail("old profile: ");
  if (!ParseFolded(new_text, &new_p, error)) return fail("new profile: ");
  Aggregate old_a, new_a;
  AggregateProfile(old_p, &old_a);
  AggregateProfile(new_p, &new_a);
  CompareProfiles(old_a, new_a, tol, out);
  return true;
}

std::string CompareToText(const CompareResult& r) {
  const std::string tol =
      Format(r.profile ? "%.1f pts" : "%.1f%%", 100.0 * r.tolerance);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s comparison (tolerance %s%s): %s (%d regressions, %zu "
                "%s)\n",
                r.profile ? "Profile" : "Baseline", tol.c_str(),
                r.profile ? ", frames under 1% on both sides never fail" : "",
                r.ok() ? "OK" : "FAILED", r.regressions, r.rows.size(),
                r.profile ? "frames" : "metrics");
  std::string out = buf;
  auto value = [&r](double v) {
    return r.profile ? Format("%.2f%%", 100.0 * v) : Format("%.6g", v);
  };
  for (const CompareRow& row : r.rows) {
    const bool missing = row.mark == CompareRow::Mark::kMissing;
    const bool added = row.mark == CompareRow::Mark::kNew;
    const std::string delta =
        Format(r.profile ? "%+.2f pts" : "%+.2f%%", 100.0 * row.delta);
    std::snprintf(buf, sizeof(buf), " %14s -> %14s %10s (%s)%s\n",
                  added ? "-" : value(row.old_value).c_str(),
                  missing ? "-" : value(row.new_value).c_str(),
                  missing || added ? "-" : delta.c_str(), row.direction.c_str(),
                  missing ? " missing from new" : added ? " new metric" : "");
    // The name goes in unformatted: a long one must not truncate the line.
    out += row.regressed ? "REGRESSION " : "ok         ";
    out += row.name;
    out.append(row.name.size() < 44 ? 44 - row.name.size() : 0, ' ');
    out += buf;
  }
  return out;
}

std::string CompareToJson(const CompareResult& r) {
  std::string out =
      r.profile ? "{\"input\":\"profile\"" : "{\"input\":\"baseline\"";
  out += r.ok() ? ",\"ok\":true" : ",\"ok\":false";
  out += ",\"regressions\":" + std::to_string(r.regressions);
  out += ",\"tolerance\":";
  AppendJsonNumber(&out, r.tolerance);
  out += ",\"rows\":[";
  auto number = [&out](const char* key, double v, bool present) {
    out += key;
    if (present) {
      AppendJsonNumber(&out, v);
    } else {
      out += "null";
    }
  };
  for (const CompareRow& row : r.rows) {
    const bool has_old = row.mark != CompareRow::Mark::kNew;
    const bool has_new = row.mark != CompareRow::Mark::kMissing;
    out += &row == &r.rows.front() ? "{\"name\":" : ",{\"name\":";
    AppendJsonString(&out, row.name);
    out += ",\"direction\":\"" + row.direction + "\"";
    number(",\"old\":", row.old_value, has_old);
    number(",\"new\":", row.new_value, has_new);
    number(",\"delta\":", row.delta, has_old && has_new);
    out += row.regressed ? ",\"regressed\":true}" : ",\"regressed\":false}";
  }
  out += "]}";
  return out;
}

// The text report in a fenced block keeps its columns aligned on the run
// page.
std::string CompareToMarkdown(const CompareResult& r) {
  return std::string("### ") + (r.profile ? "cpu-profile" : "perf-compare") +
         " gate: " + (r.ok() ? "PASS" : "FAIL") + " (" +
         std::to_string(r.regressions) + " regressions)\n\n```text\n" +
         CompareToText(r) + "```\n";
}

}  // namespace dufs::tracestats
