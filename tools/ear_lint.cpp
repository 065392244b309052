// ear_lint — domain linter for the EAR simulator (driver).
//
// The analysis lives in tools/lint/ (token, source, rules, findings);
// this translation unit only parses flags, runs the per-file rules over
// every file under each root and applies the allowlist policy.
//
//   ear_lint --root DIR [--allowlist FILE]
//   ear_lint --self-test DIR
//
// Findings go to stderr, one per line. An allowlist entry that matches
// nothing is stale and fails the run; an entry naming a rule no pass can
// fire is an error.
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lint/findings.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ear_lint --root DIR [--allowlist FILE]\n"
               "       ear_lint --self-test DIR\n");
  return 2;
}

/// Every rule id some pass can emit. An allowlist entry naming anything
/// else suppresses nothing forever — the pass it excused no longer
/// exists — and is rejected outright rather than rotting in the file.
const std::set<std::string>& known_rules() {
  static const std::set<std::string> kRules = {
      "raw-freq-api",     "raw-power-scalar",    "banned-call",
      "banned-io",        "include-hygiene",     "hw-mutation",
      "nondet-iteration", "hot-path-string-map"};
  return kRules;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string allowlist_path;
  std::string selftest_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      roots.emplace_back(argv[++i]);
    } else if (arg == "--allowlist" && i + 1 < argc) {
      allowlist_path = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      selftest_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (roots.empty() && selftest_dir.empty()) return usage();
  if (!selftest_dir.empty()) roots.assign(1, selftest_dir);

  std::vector<lint::AllowEntry> allow;
  if (!allowlist_path.empty()) {
    std::string error;
    if (!lint::parse_allowlist(allowlist_path, &allow, &error)) {
      std::fprintf(stderr, "ear_lint: %s\n", error.c_str());
      return 2;
    }
    for (const lint::AllowEntry& e : allow) {
      if (known_rules().count(e.rule) != 0) continue;
      std::fprintf(stderr,
                   "%s:%zu: allowlist entry names unknown rule `%s` (no "
                   "pass can fire it); delete the entry\n",
                   allowlist_path.c_str(), e.source_line, e.rule.c_str());
      return 2;
    }
  }

  int exit_code = 0;
  std::size_t files_scanned = 0;

  for (const std::string& root : roots) {
    if (!std::filesystem::is_directory(root)) {
      std::fprintf(stderr, "ear_lint: not a directory: %s\n", root.c_str());
      return 2;
    }
    const std::vector<lint::SourceFile> files = lint::load_sources(root);
    files_scanned += files.size();

    std::vector<lint::Finding> findings;
    for (const lint::SourceFile& file : files) {
      lint::scan_file(file, &findings);
    }
    lint::sort_findings(&findings);

    if (!selftest_dir.empty()) {
      for (const lint::SourceFile& file : files) {
        if (lint::check_expectations(file, findings) != 0) exit_code = 1;
      }
      continue;
    }

    for (const lint::Finding& f : findings) {
      const lint::SourceFile* src = nullptr;
      for (const lint::SourceFile& file : files) {
        if (file.rel == f.file) src = &file;
      }
      const std::string& raw =
          src != nullptr && f.line >= 1 && f.line - 1 < src->raw_lines.size()
              ? src->raw_lines[f.line - 1]
              : f.file;
      if (lint::allowed(f, raw, &allow)) continue;
      lint::print_text_finding(f);
      exit_code = 1;
    }
  }

  // A suppression that excuses nothing is stale and must be deleted, so
  // the allowlist can only shrink unless a reviewed change grows it.
  for (const lint::AllowEntry& e : allow) {
    if (e.used) continue;
    std::fprintf(stderr,
                 "%s:%zu: stale allowlist entry `%s:%s%s` matches "
                 "nothing; delete it\n",
                 allowlist_path.c_str(), e.source_line, e.file.c_str(),
                 e.rule.c_str(),
                 e.substring.empty() ? "" : (":" + e.substring).c_str());
    exit_code = 1;
  }

  if (exit_code == 0 && selftest_dir.empty()) {
    std::fprintf(stderr, "ear_lint: %zu files clean\n", files_scanned);
  }
  return exit_code;
}
