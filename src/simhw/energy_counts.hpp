// Fixed-point energy: the one unit every simulated energy counter counts.
//
// Real energy counters are integers: RAPL counts 2^-14 J (Skylake's
// energy-status unit) and Intel Node Manager whole joules. The simulator's
// counters each keep one integer accumulator of 2^-30 J per count, so
// both registers are bit shifts of it. A deposit is rounded to the
// nearest count once and nothing is carried over, so k equal deposits
// add exactly k times one quantum, in any order or grouping.
//
// Range: a 64-bit accumulator holds 2^34 J (1.7e10 J), one node at 1 kW
// for 199 days. Totals over many nodes use 128 bits (EnergyTotal), which
// cannot overflow for fewer than 2^64 nodes. Adding past a 64-bit
// accumulator fails a check instead of wrapping.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"

namespace ear::simhw {

/// One count is 2^-kEnergyCountBits J.
inline constexpr int kEnergyCountBits = 30;
inline constexpr double kJoulesPerEnergyCount = 0x1p-30;
/// Seconds a 64-bit accumulator lasts at 1 kW: 2^64 counts of 2^-30 J.
inline constexpr double kEnergyCounterSecondsAtKw = 0x1p34 / 1000.0;

/// Sum of many nodes' accumulators (island and facility totals).
__extension__ typedef unsigned __int128 EnergyTotal;

/// `e` in whole counts, rounded to the nearest. Negative, non-finite or
/// out-of-range energy fails a check.
[[nodiscard]] inline std::uint64_t to_energy_counts(common::Joules e) {
  EAR_CHECK_MSG(e.value >= 0.0, "energy cannot decrease");
  const double counts = e.value * 0x1p30;
  EAR_CHECK_MSG(counts < 0x1p64, "energy deposit beyond the counter range");
  // Below 2^52 adding a half is exact; at and above it every double is
  // already a whole number.
  return static_cast<std::uint64_t>(counts < 0x1p52 ? counts + 0.5 : counts);
}

/// `counts` in joules (exact below 2^53 counts, 8.4 MJ).
[[nodiscard]] inline common::Joules energy_counts_to_joules(
    EnergyTotal counts) {
  return {static_cast<double>(counts) * kJoulesPerEnergyCount};
}

/// a + b, failing a check instead of wrapping.
[[nodiscard]] inline std::uint64_t add_energy_counts(std::uint64_t a,
                                                    std::uint64_t b) {
  std::uint64_t sum = 0;
  EAR_CHECK_MSG(!__builtin_add_overflow(a, b, &sum),
                "energy counter overflow");
  return sum;
}

/// `times` deposits of `counts` each, failing a check instead of wrapping.
[[nodiscard]] inline std::uint64_t scale_energy_counts(std::uint64_t counts,
                                                      std::uint64_t times) {
  std::uint64_t product = 0;
  EAR_CHECK_MSG(!__builtin_mul_overflow(counts, times, &product),
                "energy counter overflow");
  return product;
}

}  // namespace ear::simhw
