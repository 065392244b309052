// Intel Node Manager (INM) DC-node energy counter emulation.
//
// The paper reads node energy through IPMI/INM, whose accumulated-energy
// counter only updates once per second — which is why EARL computes DC
// node power from >=10 s windows. We reproduce the 1 s quantisation: a
// read returns the energy accumulated up to the last whole second of
// simulated time, in whole joules. Underneath, the counter accumulates
// the simulator's 2^-30 J fixed-point unit (energy_counts.hpp); a read
// is a shift of the value published at that second.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"
#include "simhw/energy_counts.hpp"

namespace ear::simhw {

using common::Joules;
using common::Secs;

class NodeManagerCounter {
 public:
  /// Simulator side: add `e` joules consumed over `dt` of simulated time.
  void deposit(Joules e, Secs dt) { add(to_energy_counts(e), dt); }

  /// One deposit of `counts` (2^-30 J) over `dt`: the per-iteration
  /// path, inline, with one whole-second crossing test.
  void add(std::uint64_t counts, Secs dt) {
    EAR_CHECK_MSG(dt.value >= 0.0, "time must be non-negative");
    const double elapsed = elapsed_ + dt.value;
    const bool crossed = elapsed >= whole_seconds(elapsed_) + 1.0;
    counts_ = add_energy_counts(counts_, counts);
    elapsed_ = elapsed;
    if (crossed) published_ = published_at(counts_, counts, elapsed, dt);
  }

  /// `rounds` deposits of `counts` over `dt` each. Bitwise the same as
  /// that many calls one at a time: the energy adds in one multiply, the
  /// elapsed time replays its `rounds` additions (they are not
  /// `rounds * dt` in floating point).
  void add(std::uint64_t counts, Secs dt, std::uint64_t rounds);

  /// IPMI-visible reading: whole joules, frozen at 1 s boundaries.
  [[nodiscard]] std::uint64_t read_joules() const {
    return published_ >> kEnergyCountBits;
  }

  /// Continuous ground truth (not visible to EARL; used by test oracles).
  [[nodiscard]] Joules exact() const {
    return energy_counts_to_joules(counts_);
  }
  /// The ground truth in 2^-30 J counts.
  [[nodiscard]] std::uint64_t counts() const { return counts_; }
  [[nodiscard]] Secs elapsed() const { return Secs{elapsed_}; }

 private:
  /// floor(s) of a non-negative elapsed time below 2^63 s (checked), by
  /// integer truncation instead of a libm call.
  static double whole_seconds(double s) {
    EAR_CHECK_MSG(s >= 0.0 && s < 0x1p63, "elapsed time out of range");
    return static_cast<double>(static_cast<std::uint64_t>(s));
  }
  /// The counter as of the last whole second, when it reads `upto` after
  /// a deposit of `counts` over `dt` that crossed that second and ended
  /// at elapsed time `end_s`: power is uniform across the deposit (1 s
  /// sampling in the BMC), so the counts past the boundary are its
  /// overshoot's share.
  static std::uint64_t published_at(std::uint64_t upto, std::uint64_t counts,
                                    double end_s, Secs dt) {
    const double overshoot = end_s - whole_seconds(end_s);
    const auto tail = static_cast<std::uint64_t>(
        static_cast<double>(counts) * (overshoot / dt.value));
    return upto - std::min(tail, counts);
  }

  std::uint64_t counts_ = 0;
  std::uint64_t published_ = 0;  // counts as of the last whole second
  double elapsed_ = 0.0;
};

}  // namespace ear::simhw
