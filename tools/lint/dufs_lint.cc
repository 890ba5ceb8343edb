// dufs_lint — repo-specific static analysis for the DUFS tree.
//
//   dufs_lint [--root=DIR] [--format=text|json] [--rule=a,b] [--explain]
//             [--sarif=FILE] [--werror] [paths...]
//
// With no explicit paths, walks src/, bench/, tests/ and examples/ under
// --root (default: current directory) over *.h/*.cc/*.cpp, lints each file
// on its own (rules.h) and prints findings. Exit status: 0 clean
// (warn-severity findings do not fail unless --werror), 1 error findings,
// 2 usage or I/O error (an unknown --rule id is a usage error, so a filter
// naming a deleted rule cannot pass vacuously).
//
// `--sarif=FILE` writes a SARIF 2.1.0 log alongside the normal output.
// `--format=json` emits a machine-readable findings array; `--explain`
// documents each rule with a bad/good example and exits.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_text.h"
#include "rules.h"

namespace {

namespace fs = std::filesystem;
using dufs::lint::CollectFiles;
using dufs::lint::Finding;
using dufs::lint::LintFile;
using dufs::lint::RuleDocs;
using dufs::lint::RuleSeverity;
using dufs::lint::Severity;
using dufs::lint::SeverityName;

struct Options {
  std::string root = ".";
  std::string format = "text";
  std::set<std::string> rule_filter;  // empty = all rules
  bool explain = false;
  bool werror = false;
  std::string sarif_path;
  std::vector<std::string> paths;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: dufs_lint [--root=DIR] [--format=text|json] [--rule=a,b] "
      "[--explain]\n"
      "                 [--sarif=FILE] [--werror] [paths...]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      if (arg.compare(0, n, key) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--root")) {
      opt->root = v;
    } else if (const char* v = value("--format")) {
      opt->format = v;
      if (opt->format != "text" && opt->format != "json") return false;
    } else if (const char* v = value("--rule")) {
      std::string rule;
      for (const char* p = v;; ++p) {
        if (*p == ',' || *p == '\0') {
          if (!rule.empty()) opt->rule_filter.insert(rule);
          rule.clear();
          if (*p == '\0') break;
        } else {
          rule += *p;
        }
      }
    } else if (const char* v = value("--sarif")) {
      opt->sarif_path = v;
    } else if (arg == "--werror") {
      opt->werror = true;
    } else if (arg == "--explain") {
      opt->explain = true;
    } else if (arg.rfind("--", 0) == 0) {
      return false;
    } else {
      opt->paths.push_back(arg);
    }
  }
  const auto& docs = RuleDocs();
  for (const std::string& rule : opt->rule_filter) {
    const bool known =
        std::any_of(docs.begin(), docs.end(),
                    [&rule](const auto& doc) { return rule == doc.id; });
    if (!known) {
      std::fprintf(stderr, "dufs_lint: unknown rule `%s` (see --explain)\n",
                   rule.c_str());
      return false;
    }
  }
  return true;
}

void Explain() {
  std::printf("dufs_lint rules\n===============\n");
  for (const auto& doc : RuleDocs()) {
    std::printf("\n%s — %s [%s]\n", doc.id, doc.summary,
                SeverityName(doc.severity));
    std::printf("  %s\n", doc.rationale);
    std::printf("  bad:  %s\n", doc.bad);
    std::printf("  good: %s\n", doc.good);
  }
  std::printf(
      "\nSuppress a finding with `// dufs-lint: allow(<rule>)` on the "
      "offending line or alone on the line above (give a reason).\n");
}

// Repo-relative with forward slashes, so findings and path-scoped rules are
// stable regardless of how the tool was invoked.
std::string RelativePath(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec ? p : rel).generic_string();
  while (s.rfind("./", 0) == 0) s = s.substr(2);
  return s;
}

using dufs::JsonEscape;

// Minimal valid SARIF 2.1.0: one run, rule metadata from RuleDocs(), one
// result per finding with a physical location.
bool WriteSarif(const std::string& path,
                const std::vector<Finding>& findings) {
  std::string out;
  out +=
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"dufs_lint\",\"version\":\"3.0.0\","
      "\"informationUri\":\"https://github.com/\",\"rules\":[";
  const auto& docs = RuleDocs();
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"id\":\"" + JsonEscape(docs[i].id) + "\"";
    out += ",\"shortDescription\":{\"text\":\"" +
           JsonEscape(docs[i].summary) + "\"}";
    out += ",\"fullDescription\":{\"text\":\"" +
           JsonEscape(docs[i].rationale) + "\"}";
    out += ",\"defaultConfiguration\":{\"level\":\"";
    out += docs[i].severity == Severity::kWarn ? "warning" : "error";
    out += "\"}}";
  }
  out += "]}},\"results\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ',';
    out += "{\"ruleId\":\"" + JsonEscape(f.rule) + "\"";
    out += ",\"level\":\"";
    out += RuleSeverity(f.rule) == Severity::kWarn ? "warning" : "error";
    out += "\",\"message\":{\"text\":\"" + JsonEscape(f.message) + "\"}";
    out += ",\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{";
    out += "\"uri\":\"" + JsonEscape(f.file) + "\"}";
    out += ",\"region\":{\"startLine\":" +
           std::to_string(f.line > 0 ? f.line : 1) + "}}}]}";
  }
  out += "]}]}\n";
  std::ofstream file(path, std::ios::trunc | std::ios::binary);
  if (!file) return false;
  file << out;
  return static_cast<bool>(file);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();
  if (opt.explain) {
    Explain();
    return 0;
  }

  const fs::path root(opt.root);
  const std::vector<std::string> files = CollectFiles(opt.root, opt.paths);
  std::vector<Finding> findings;
  if (files.empty()) {
    std::fprintf(stderr, "dufs_lint: no source files under %s\n",
                 opt.root.c_str());
    return 2;
  }
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "dufs_lint: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream content;
    content << in.rdbuf();
    // Files are sorted and each file's findings by (line, rule), so the
    // whole list comes out sorted by (file, line, rule).
    for (Finding& f : LintFile(RelativePath(file, root), content.str())) {
      findings.push_back(std::move(f));
    }
  }

  if (!opt.rule_filter.empty()) {
    std::erase_if(findings, [&opt](const Finding& f) {
      return opt.rule_filter.count(f.rule) == 0;
    });
  }

  if (!opt.sarif_path.empty() && !WriteSarif(opt.sarif_path, findings)) {
    std::fprintf(stderr, "dufs_lint: cannot write SARIF %s\n",
                 opt.sarif_path.c_str());
    return 2;
  }

  std::size_t errors = 0, warns = 0;
  for (const Finding& f : findings) {
    if (RuleSeverity(f.rule) == Severity::kWarn) {
      ++warns;
    } else {
      ++errors;
    }
  }

  if (opt.format == "json") {
    std::string out = "{\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      if (i > 0) out += ',';
      out += "{\"file\":\"" + JsonEscape(f.file) + "\"";
      out += ",\"line\":" + std::to_string(f.line);
      out += ",\"rule\":\"" + JsonEscape(f.rule) + "\"";
      out += ",\"severity\":\"";
      out += SeverityName(RuleSeverity(f.rule));
      out += "\",\"message\":\"" + JsonEscape(f.message) + "\"}";
    }
    out += "],\"files_scanned\":" + std::to_string(files.size()) + "}\n";
    std::fputs(out.c_str(), stdout);
  } else {
    for (const Finding& f : findings) {
      std::printf("%s:%d: [%s] %s: %s\n", f.file.c_str(), f.line,
                  SeverityName(RuleSeverity(f.rule)), f.rule.c_str(),
                  f.message.c_str());
    }
    std::fprintf(stderr, "dufs_lint: %zu finding(s) in %zu file(s)\n",
                 findings.size(), files.size());
  }
  if (errors > 0) return 1;
  if (opt.werror && warns > 0) return 1;
  return 0;
}
