// Output digests: the value a performance change must leave bitwise
// unchanged. FNV-1a 64 over a canonical byte stream; doubles go in as
// their bit patterns, so "equal digest" means "bitwise-equal results".
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "analysis/model_checker.hpp"
#include "sim/facility.hpp"

namespace perfbench {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void bytes(std::string_view b) {
    for (const unsigned char c : b) {
      h_ = (h_ ^ c) * kPrime;
    }
  }
  void u64(std::uint64_t v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    bytes({buf, sizeof buf});
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof v);
    u64(bits);
  }
  /// Length-prefixed, so ("ab","c") and ("a","bc") differ.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kOffset;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Every simulated field of a facility run. `walls` (host wall-clock) is
/// deliberately left out: it differs on every run.
[[nodiscard]] std::uint64_t digest_facility(const ear::sim::FacilityResult& r);

/// A model-checker report: its exploration digest, counts and ok().
void digest_report(Fnv1a& h, const ear::analysis::CheckReport& r);

}  // namespace perfbench
