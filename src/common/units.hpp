// Strong unit types used throughout the library.
//
// Frequencies are stored as integral kHz (the granularity the Linux cpufreq
// and MSR interfaces use); power/energy/time as double-precision SI values.
// The types are deliberately tiny value types: no virtuals, trivially
// copyable, and only the arithmetic that is physically meaningful
// (Energy = Power * Time, etc.) is provided.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "common/contracts.hpp"

namespace ear::common {

/// CPU or uncore clock frequency. Internally kHz so that 100 MHz P-state
/// steps are exact integers.
class Freq {
 public:
  constexpr Freq() = default;
  static constexpr Freq khz(std::uint64_t v) { return Freq{v}; }
  static constexpr Freq mhz(std::uint64_t v) { return Freq{v * 1000}; }
  static constexpr Freq ghz(double v) {
    return Freq{static_cast<std::uint64_t>(v * 1'000'000.0 + 0.5)};
  }

  [[nodiscard]] constexpr std::uint64_t as_khz() const { return khz_; }
  [[nodiscard]] constexpr std::uint64_t as_mhz() const { return khz_ / 1000; }
  [[nodiscard]] constexpr double as_ghz() const {
    return static_cast<double>(khz_) / 1'000'000.0;
  }
  /// Cycles per second, for time computations.
  [[nodiscard]] constexpr double as_hz() const {
    return static_cast<double>(khz_) * 1000.0;
  }
  [[nodiscard]] constexpr bool is_zero() const { return khz_ == 0; }

  friend constexpr auto operator<=>(Freq a, Freq b) = default;
  friend constexpr Freq operator+(Freq a, Freq b) { return Freq{a.khz_ + b.khz_}; }
  /// Subtracting a larger frequency is a precondition violation.
  friend constexpr Freq operator-(Freq a, Freq b) {
    EAR_EXPECT_MSG(a.khz_ >= b.khz_, "Freq subtraction underflow");
    return Freq{a.khz_ - b.khz_};
  }

  /// Ratio of two frequencies (dimensionless), e.g. for DVFS scaling laws.
  [[nodiscard]] constexpr double ratio_to(Freq other) const {
    return other.khz_ == 0 ? 0.0
                           : static_cast<double>(khz_) /
                                 static_cast<double>(other.khz_);
  }

  [[nodiscard]] std::string str() const;

 private:
  constexpr explicit Freq(std::uint64_t khz) : khz_(khz) {}
  std::uint64_t khz_ = 0;
};

/// Instantaneous power in watts.
struct Watts {
  double value = 0.0;
  friend constexpr auto operator<=>(Watts a, Watts b) = default;
  friend constexpr Watts operator+(Watts a, Watts b) { return {a.value + b.value}; }
  friend constexpr Watts operator-(Watts a, Watts b) { return {a.value - b.value}; }
  constexpr Watts& operator+=(Watts o) { value += o.value; return *this; }
  /// Margin/share scaling: budgets are multiplied by dimensionless
  /// ratios (trigger margin, floor share) all over the control plane.
  friend constexpr Watts operator*(Watts p, double k) { return {p.value * k}; }
  friend constexpr Watts operator*(double k, Watts p) { return {p.value * k}; }
  friend constexpr Watts operator/(Watts p, double k) { return {p.value / k}; }
};

/// Time duration in seconds (simulated time).
struct Secs {
  double value = 0.0;
  friend constexpr auto operator<=>(Secs a, Secs b) = default;
  friend constexpr Secs operator+(Secs a, Secs b) { return {a.value + b.value}; }
  friend constexpr Secs operator-(Secs a, Secs b) { return {a.value - b.value}; }
  constexpr Secs& operator+=(Secs o) { value += o.value; return *this; }
};

/// Accumulated energy in joules.
struct Joules {
  double value = 0.0;
  friend constexpr auto operator<=>(Joules a, Joules b) = default;
  friend constexpr Joules operator+(Joules a, Joules b) { return {a.value + b.value}; }
  friend constexpr Joules operator-(Joules a, Joules b) { return {a.value - b.value}; }
  constexpr Joules& operator+=(Joules o) { value += o.value; return *this; }
};

constexpr Joules operator*(Watts p, Secs t) { return {p.value * t.value}; }
constexpr Joules operator*(Secs t, Watts p) { return p * t; }
/// Average power over an interval.
constexpr Watts operator/(Joules e, Secs t) {
  return {t.value > 0.0 ? e.value / t.value : 0.0};
}

/// API-boundary vocabulary for the ear_lint raw-power-scalar rule: a
/// budget, cap or instantaneous reading crossing a public interface is
/// a Power; an accumulated quantity is an Energy. Aliases of the SI
/// carrier types so arithmetic (Power * Secs = Energy, ...) is shared.
using Power = Watts;
using Energy = Joules;

/// Memory traffic rate in GB/s (decimal GB, as the paper reports).
struct GBps {
  double value = 0.0;
  friend constexpr auto operator<=>(GBps a, GBps b) = default;
};

}  // namespace ear::common
