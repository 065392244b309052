// Minimal command-line argument parser for the tools and examples:
// positional arguments plus --key=value / --key value / --flag options,
// with typed accessors and defaults. No external dependencies.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ear::common {

class ArgParser {
 public:
  /// Parse argv (argv[0] is skipped). Throws ConfigError on malformed
  /// options ("--=x") or on repeated option names.
  ///
  /// Value options accept both "--key=value" and "--key value". Because
  /// "--flag positional" is ambiguous with the space form, options named
  /// in `flags` never consume a following token.
  ArgParser(int argc, const char* const* argv,
            std::set<std::string> flags = {});

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] std::string positional_or(std::size_t index,
                                          const std::string& def) const;

  [[nodiscard]] bool has(const std::string& name) const;
  /// Flag given without a value ("--verbose").
  [[nodiscard]] bool flag(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def) const;
  /// Numeric values parse as in input files (common/ini.hpp): a finite
  /// number, or a decimal/0x integer. A malformed value throws
  /// ConfigError; a missing or empty one returns `def`.
  [[nodiscard]] double get(const std::string& name, double def) const;
  [[nodiscard]] std::int64_t get(const std::string& name,
                                 std::int64_t def) const;
  /// For counts, indices and seeds: a negative value throws ConfigError
  /// ("option --jobs expects a non-negative integer, got '-1'").
  [[nodiscard]] std::uint64_t get(const std::string& name,
                                  std::uint64_t def) const;

  /// Throw ConfigError ("unknown option --bogus") when an option outside
  /// `known` was given: a command lists every option it reads, so a typo
  /// is refused instead of silently running the default.
  void require_known(const std::set<std::string>& known) const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;  // "" = bare flag
};

}  // namespace ear::common
