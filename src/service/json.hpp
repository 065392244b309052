// Minimal JSON emitter for the service layer's artifact summaries.
//
// Deliberately a writer only: the artifacts are consumed by people and
// plotting scripts, none of which need a C++ JSON parser here. Doubles are emitted with
// common::exact_double (shortest round-trip form, locale-independent);
// non-finite values, which JSON cannot represent as numbers, become the
// quoted strings "nan" / "inf" / "-inf" — common::parse_exact_double
// accepts those spellings back.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ear::service {

class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Key inside an object; must be followed by a value or container.
  void key(std::string_view k);
  void value_str(std::string_view s);
  void value_double(double v);
  void value_u64(std::uint64_t v);
  void value_bool(bool v);

  /// The document built so far. Call after the outermost container
  /// closed; the result ends with a trailing newline.
  [[nodiscard]] std::string str() const { return out_ + "\n"; }

 private:
  void separate();  // comma between siblings
  void indent();

  std::string out_;
  std::vector<bool> has_items_;  // per open container
  bool after_key_ = false;
};

/// JSON string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace ear::service
