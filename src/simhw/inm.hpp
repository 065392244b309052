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

#include <cstdint>

#include "common/units.hpp"
#include "simhw/energy_counts.hpp"

namespace ear::simhw {

using common::Joules;
using common::Secs;

class NodeManagerCounter {
 public:
  /// Simulator side: add `e` joules consumed over `dt` of simulated time.
  void deposit(Joules e, Secs dt) { add(to_energy_counts(e), dt); }

  /// `rounds` deposits of `counts` (2^-30 J) over `dt` each. Bitwise the
  /// same as that many calls one at a time: the energy adds in one
  /// multiply, the elapsed time replays its `rounds` additions (they are
  /// not `rounds * dt` in floating point).
  void add(std::uint64_t counts, Secs dt, std::uint64_t rounds = 1);

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
  std::uint64_t counts_ = 0;
  std::uint64_t published_ = 0;  // counts as of the last whole second
  double elapsed_ = 0.0;
};

}  // namespace ear::simhw
