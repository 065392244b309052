// One reader for the repository's text inputs: the INI-style config
// files (workload specs, fault plans, sweep specs) and the typed values
// inside them and on the command line. docs/usage.md §"Input files"
// states the grammar:
//
//   # '#' and ';' start a comment; blank lines are skipped
//   [name]          ; opens a section; the name must not be empty
//   key = value     ; needs a section above it, a key and a value
//
// Whitespace around names, keys and values is trimmed. Each caller keeps
// what only it knows: which section names are legal, its key table and
// its post-parse checks.
#pragma once

#include <charconv>
#include <concepts>
#include <istream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace ear::common {

/// `text` as a finite number: one whole token in strtod syntax; NaN and
/// infinities are rejected. Throws ConfigError("<subject> expects a
/// finite number, got '<text>'").
[[nodiscard]] double parse_number(const std::string& text,
                                  const std::string& subject);

/// `text` as an integer in [lo, hi]: decimal with an optional leading
/// '-', or hex after "0x". One whole token, parsed as an integer (never
/// through double) and range-checked before any narrowing. Throws
/// ConfigError("<subject> expects an integer ..., got '<text>'").
template <std::integral T>
[[nodiscard]] T parse_integer(const std::string& text,
                              const std::string& subject,
                              T lo = std::numeric_limits<T>::min(),
                              T hi = std::numeric_limits<T>::max()) {
  // A sign after "0x" is not part of the grammar.
  const bool hex =
      text.starts_with("0x") && text.find('-') == std::string::npos;
  const char* const last = text.data() + text.size();
  T v{};
  const auto [end, ec] =
      std::from_chars(text.data() + (hex ? 2 : 0), last, v, hex ? 16 : 10);
  if (ec == std::errc() && end == last && lo <= v && v <= hi) return v;
  const bool full_range = lo == std::numeric_limits<T>::min() &&
                          hi == std::numeric_limits<T>::max();
  const std::string kind =
      !full_range ? "an integer in [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "]"
      : std::is_signed_v<T> ? "an integer"
                            : "a non-negative integer";
  throw ConfigError(subject + " expects " + kind + ", got '" + text + "'");
}

/// Comma-separated items, each trimmed; empty items are dropped.
[[nodiscard]] std::vector<std::string> split_list(const std::string& text);

/// Where an INI item sits, for error messages.
struct IniPlace {
  std::string what;  // the file kind: "spec file", "fault plan", ...
  int line = 0;

  /// ConfigError("<what> line <line>: <message>").
  [[nodiscard]] ConfigError error(const std::string& message) const;
};

/// One `key = value` line. The typed accessors throw a ConfigError that
/// names the file kind, the line and the key.
struct IniEntry : IniPlace {
  std::string key;
  std::string value;

  [[nodiscard]] double number() const {
    return parse_number(value, subject());
  }
  template <std::integral T>
  [[nodiscard]] T integer(T lo = std::numeric_limits<T>::min(),
                          T hi = std::numeric_limits<T>::max()) const {
    return parse_integer<T>(value, subject(), lo, hi);
  }
  /// true/false, yes/no or 1/0.
  [[nodiscard]] bool boolean() const;

 private:
  [[nodiscard]] std::string subject() const;
};

/// One `[name]` section and its entries, in file order.
struct IniSection : IniPlace {
  std::string name;
  std::vector<IniEntry> entries;
};

/// Every section of `in`, in file order. `what` names the file kind in
/// each error: ConfigError("<what> line N: ...").
[[nodiscard]] std::vector<IniSection> read_ini(std::istream& in,
                                               const std::string& what);

}  // namespace ear::common
