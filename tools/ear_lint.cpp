// ear_lint — domain linter for the EAR simulator (driver).
//
// The analysis lives in tools/lint/ (token, source, rules, index, deep,
// findings); this translation unit only parses flags, feeds the Program
// through the passes and applies the allowlist/output policy.
//
//   ear_lint --root DIR [--allowlist FILE] [--json] [--sarif FILE] [--deep]
//   ear_lint --self-test DIR [--deep]
//
// --deep runs the whole-program passes (nondet-taint, shard-ownership)
// on top of the per-file rules; the per-file nondet-iteration rule is
// skipped there because the taint pass subsumes it (same rule id, same
// sites, plus cross-function flows). Allowlist entries for the deep-only
// rules are exempt from staleness in shallow runs, which can never fire
// them; entries naming a rule no pass can ever fire are an error.
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lint/deep.hpp"
#include "lint/findings.hpp"
#include "lint/index.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ear_lint --root DIR [--allowlist FILE] [--json] "
               "[--sarif FILE] [--deep]\n"
               "       ear_lint --self-test DIR [--deep]\n");
  return 2;
}

/// Every rule id some pass can emit. An allowlist entry naming anything
/// else suppresses nothing forever — the pass it excused no longer
/// exists — and is rejected outright rather than rotting in the file.
const std::set<std::string>& known_rules() {
  static const std::set<std::string> kRules = {
      "raw-freq-api",     "raw-power-scalar",    "banned-call",
      "banned-io",        "include-hygiene",     "hw-mutation",
      "nondet-iteration", "hot-path-string-map", "nondet-taint",
      "shard-ownership"};
  return kRules;
}

/// True when only --deep can fire `rule`. An entry for such a rule is
/// not stale just because a shallow run kept quiet.
bool deep_only(const std::string& rule) {
  return rule == "nondet-taint" || rule == "shard-ownership";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string allowlist_path;
  std::string selftest_dir;
  std::string sarif_path;
  bool json = false;
  bool deep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      roots.emplace_back(argv[++i]);
    } else if (arg == "--allowlist" && i + 1 < argc) {
      allowlist_path = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      selftest_dir = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--deep") {
      deep = true;
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

  std::vector<std::string> expect_tags = {"LINT-EXPECT:"};
  if (deep) expect_tags.emplace_back("LINT-EXPECT-DEEP:");

  lint::RuleOptions rule_opts;
  rule_opts.skip_nondet_iteration = deep;

  int exit_code = 0;
  std::size_t files_scanned = 0;
  std::vector<lint::Finding> reported;

  for (const std::string& root : roots) {
    if (!std::filesystem::is_directory(root)) {
      std::fprintf(stderr, "ear_lint: not a directory: %s\n", root.c_str());
      return 2;
    }
    const lint::Program program = lint::Program::from_directory(root);
    files_scanned += program.files().size();

    std::vector<lint::Finding> findings;
    for (const lint::SourceFile& file : program.files()) {
      lint::scan_file(file, rule_opts, &findings);
    }
    if (deep) {
      const lint::Index index = lint::build_index(program);
      const lint::CallGraph cg = lint::build_callgraph(program, index);
      lint::run_deep_passes(program, index, cg, &findings);
    }
    lint::sort_findings(&findings);

    if (!selftest_dir.empty()) {
      for (const lint::SourceFile& file : program.files()) {
        if (lint::check_expectations(file, findings, expect_tags) != 0)
          exit_code = 1;
      }
      continue;
    }

    for (const lint::Finding& f : findings) {
      const lint::SourceFile* src = nullptr;
      for (const lint::SourceFile& file : program.files()) {
        if (file.rel == f.file) src = &file;
      }
      const std::string& raw =
          src != nullptr && f.line >= 1 && f.line - 1 < src->raw_lines.size()
              ? src->raw_lines[f.line - 1]
              : f.file;
      if (lint::allowed(f, raw, &allow)) continue;
      reported.push_back(f);
    }
  }

  for (const lint::Finding& f : reported) {
    if (json) {
      lint::print_json_finding(f);
    } else {
      lint::print_text_finding(f);
    }
    exit_code = 1;
  }
  // A suppression that excuses nothing is stale and must be deleted, so
  // the allowlist can only shrink unless a reviewed change grows it.
  for (const lint::AllowEntry& e : allow) {
    if (e.used || (deep_only(e.rule) && !deep)) continue;
    if (json) {
      lint::print_json_finding(
          {allowlist_path, e.source_line, "stale-allowlist",
           "entry `" + e.file + ":" + e.rule +
               (e.substring.empty() ? "" : ":" + e.substring) +
               "` matches nothing; delete it"});
    } else {
      std::fprintf(stderr,
                   "%s:%zu: stale allowlist entry `%s:%s%s` matches "
                   "nothing; delete it\n",
                   allowlist_path.c_str(), e.source_line, e.file.c_str(),
                   e.rule.c_str(),
                   e.substring.empty() ? "" : (":" + e.substring).c_str());
    }
    exit_code = 1;
  }

  if (!sarif_path.empty()) {
    std::string error;
    if (!lint::write_sarif(sarif_path, reported, &error)) {
      std::fprintf(stderr, "ear_lint: %s\n", error.c_str());
      return 2;
    }
  }

  if (exit_code == 0 && !json && selftest_dir.empty()) {
    std::fprintf(stderr, "ear_lint: %zu files clean%s\n", files_scanned,
                 deep ? " (deep)" : "");
  }
  return exit_code;
}
