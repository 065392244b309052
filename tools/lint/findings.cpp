#include "lint/findings.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace lint {

void sort_findings(std::vector<Finding>* findings) {
  std::stable_sort(findings->begin(), findings->end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
}

bool parse_allowlist(const std::string& path, std::vector<AllowEntry>* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open allowlist: " + path;
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto last = line.find_last_not_of(" \t\r");
    const std::string body = line.substr(first, last - first + 1);
    const auto c1 = body.find(':');
    if (c1 == std::string::npos) {
      *error = path + ":" + std::to_string(lineno) +
               ": expected `path:rule[:substring]`";
      return false;
    }
    const auto c2 = body.find(':', c1 + 1);
    AllowEntry e;
    e.file = body.substr(0, c1);
    e.rule = c2 == std::string::npos ? body.substr(c1 + 1)
                                     : body.substr(c1 + 1, c2 - c1 - 1);
    e.substring = c2 == std::string::npos ? "" : body.substr(c2 + 1);
    e.source_line = lineno;
    out->push_back(e);
  }
  return true;
}

bool allowed(const Finding& f, const std::string& raw_line,
             std::vector<AllowEntry>* allow) {
  bool hit = false;
  for (AllowEntry& e : *allow) {
    if (e.file != f.file || e.rule != f.rule) continue;
    if (!e.substring.empty() &&
        raw_line.find(e.substring) == std::string::npos)
      continue;
    e.used = true;
    hit = true;  // keep marking every matching entry as used
  }
  return hit;
}

void print_text_finding(const Finding& f) {
  std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
               f.rule.c_str(), f.message.c_str());
}

std::size_t check_expectations(const SourceFile& file,
                               const std::vector<Finding>& findings) {
  static const std::string kTag = "LINT-EXPECT:";
  std::multiset<std::pair<std::size_t, std::string>> expected;
  for (std::size_t i = 0; i < file.raw_lines.size(); ++i) {
    const std::string& raw = file.raw_lines[i];
    std::size_t pos = 0;
    while ((pos = raw.find(kTag, pos)) != std::string::npos) {
      pos += kTag.size();
      std::istringstream rules(raw.substr(pos));
      std::string rule;
      rules >> rule;
      if (!rule.empty()) expected.insert({i + 1, rule});
    }
  }
  std::size_t mismatches = 0;
  for (const Finding& f : findings) {
    if (f.file != file.rel) continue;
    const auto it = expected.find({f.line, f.rule});
    if (it != expected.end()) {
      expected.erase(it);
    } else {
      std::fprintf(stderr, "self-test: UNEXPECTED %s:%zu [%s] %s\n",
                   f.file.c_str(), f.line, f.rule.c_str(),
                   f.message.c_str());
      ++mismatches;
    }
  }
  for (const auto& [line, rule] : expected) {
    std::fprintf(stderr, "self-test: MISSED %s:%zu expected [%s]\n",
                 file.rel.c_str(), line, rule.c_str());
    ++mismatches;
  }
  return mismatches;
}

}  // namespace lint
