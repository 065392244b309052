// ear_lint source layer: the scanned file set.
//
// Every rule is per-file, so a scan root loads into a flat list of
// files, each pre-stripped and pre-tokenized once for all the rules.
#pragma once

#include <string>
#include <vector>

#include "lint/token.hpp"

namespace lint {

struct SourceFile {
  std::string rel;   // path relative to the scan root (generic slashes)
  std::vector<std::string> raw_lines;
  std::string stripped;
  std::vector<Token> tokens;

  [[nodiscard]] bool is_header() const;
};

/// Load every lintable file (.hpp/.h/.cpp/.cc) under `root`,
/// deterministically sorted by relative path.
[[nodiscard]] std::vector<SourceFile> load_sources(const std::string& root);

}  // namespace lint
