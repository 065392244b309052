// RAPL energy counter emulation.
//
// Real RAPL exposes 32-bit counters in units of 2^-ESU joules (ESU = 14 on
// Skylake, i.e. ~61 uJ) that wrap around every few hundred kJ. We keep that
// behaviour: consumers must compute wrap-aware deltas, and the library's
// accounting layer is tested against wraps — a classic field bug in energy
// tooling. Underneath, the counter accumulates the simulator's 2^-30 J
// fixed-point unit (energy_counts.hpp); the register is a shift of it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"
#include "simhw/config.hpp"
#include "simhw/energy_counts.hpp"

namespace ear::simhw {

using common::Joules;
using common::Watts;

/// One wrapping RAPL energy counter (PKG or DRAM domain).
class RaplCounter {
 public:
  /// Skylake energy-status unit: 2^-14 J.
  static constexpr double kJoulesPerUnit = 1.0 / 16384.0;
  static constexpr std::uint64_t kWrap = 1ULL << 32;

  /// Accumulate energy into the counter (simulator side).
  void deposit(Joules e) { add(to_energy_counts(e)); }
  /// Accumulate energy already in 2^-30 J counts.
  void add(std::uint64_t counts) {
    counts_ = add_energy_counts(counts_, counts);
  }

  /// The unwrapped accumulator in 2^-30 J counts (ground truth, for
  /// test oracles).
  [[nodiscard]] std::uint64_t counts() const { return counts_; }

  /// Raw 32-bit register value as MSR reads would return it.
  [[nodiscard]] std::uint32_t raw() const {
    return static_cast<std::uint32_t>(counts_ >> kRegisterShift);
  }

  /// Wrap-aware difference between two raw readings, in joules.
  [[nodiscard]] static Joules delta(std::uint32_t before,
                                    std::uint32_t after);

 private:
  /// One register unit (2^-14 J) is 2^16 accumulator counts.
  static constexpr int kRegisterShift = kEnergyCountBits - 14;

  std::uint64_t counts_ = 0;  // unwrapped, 2^-30 J
};

/// The RAPL domains EAR reads per node: PKG per socket plus DRAM.
class RaplDomains {
 public:
  /// At most kMaxSockets sockets (checked).
  explicit RaplDomains(std::size_t sockets);

  void deposit_pkg(std::size_t socket, Joules e) {
    EAR_CHECK(socket < sockets_);
    pkg_[socket].deposit(e);
  }
  void deposit_dram(Joules e) { dram_.deposit(e); }
  /// The same, for energy already in 2^-30 J counts.
  void add_pkg(std::size_t socket, std::uint64_t counts) {
    EAR_CHECK(socket < sockets_);
    pkg_[socket].add(counts);
  }
  void add_dram(std::uint64_t counts) { dram_.add(counts); }

  [[nodiscard]] std::size_t sockets() const { return sockets_; }
  [[nodiscard]] const RaplCounter& pkg(std::size_t socket) const;
  [[nodiscard]] const RaplCounter& dram() const { return dram_; }

 private:
  std::array<RaplCounter, kMaxSockets> pkg_{};
  std::size_t sockets_;
  RaplCounter dram_;
};

}  // namespace ear::simhw
