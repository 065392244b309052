// ear_lint finding pipeline: the allowlist, the text report and the
// LINT-EXPECT self-test comparison.
//
// Suppressions live in an explicit allowlist file (one
// `path:rule[:substring]` per line); an allowlist entry that no longer
// matches anything is itself an error, so suppressions cannot outlive
// the code they excuse.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/source.hpp"

namespace lint {

struct Finding {
  std::string file;  // path relative to the scanned root
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct AllowEntry {
  std::string file;       // relative path the suppression applies to
  std::string rule;       // rule id
  std::string substring;  // optional: only lines containing this
  std::size_t source_line = 0;
  bool used = false;
};

/// Stable order: by file, then line. Rules at the same site keep their
/// emission order.
void sort_findings(std::vector<Finding>* findings);

bool parse_allowlist(const std::string& path, std::vector<AllowEntry>* out,
                     std::string* error);

/// True when some allowlist entry excuses `f`; every matching entry is
/// marked used (staleness is judged over the whole run).
bool allowed(const Finding& f, const std::string& raw_line,
             std::vector<AllowEntry>* allow);

/// One finding as `file:line: [rule] message` on stderr.
void print_text_finding(const Finding& f);

/// Compare findings against the `LINT-EXPECT: <rule>` annotations in
/// `file`. Reports mismatches to stderr; returns their count
/// (unexpected + missed).
std::size_t check_expectations(const SourceFile& file,
                               const std::vector<Finding>& findings);

}  // namespace lint
