// ear_lint finding pipeline: the allowlist, the output formats and the
// LINT-EXPECT self-test comparison.
//
// Suppressions live in an explicit allowlist file (one
// `path:rule[:substring]` per line); an allowlist entry that no longer
// matches anything is itself an error, so suppressions cannot outlive
// the code they excuse. Entries for the interprocedural (--deep) rules
// are exempt from staleness in shallow runs, which never fire them.
//
// Output formats: human text (stderr), one JSON object per finding line
// (--json, stdout) and SARIF 2.1.0 (--sarif FILE) for code-scanning
// upload.
#pragma once

#include <cstddef>
#include <cstdio>
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

void print_text_finding(const Finding& f);
void print_json_finding(const Finding& f);

/// Write all findings as a SARIF 2.1.0 log to `path`. Returns false and
/// sets `error` on I/O failure.
bool write_sarif(const std::string& path, const std::vector<Finding>& findings,
                 std::string* error);

/// Compare findings against the expectation annotations in `file`.
/// `tags` lists the annotation markers to honour — always
/// "LINT-EXPECT:", plus "LINT-EXPECT-DEEP:" when the deep passes ran, so
/// their fixtures stay quiet under shallow self-tests. ("LINT-EXPECT:"
/// is not a prefix of "LINT-EXPECT-DEEP:": the hyphen breaks the match,
/// so tags never double-count.) Reports mismatches to stderr; returns
/// their count (unexpected + missed).
std::size_t check_expectations(const SourceFile& file,
                               const std::vector<Finding>& findings,
                               const std::vector<std::string>& tags);

}  // namespace lint
