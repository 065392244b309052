// Event-time view of a fault plan.
//
// The reference facility loop re-scans every spec every control round to
// ask "is anything active right now?" — tick-time injection. The event
// core instead wants the plan as a set of *boundary events*: the rounds
// at which some spec's [start_s, end_s) activity window opens or closes.
// Between two consecutive boundaries the active-spec set is constant, so
// a multi-round stretch can be integrated without consulting the plan,
// and rounds with no active spec skip the fault phase entirely — without
// changing which (spec, target, round) draws happen, since those only
// ever occur inside activity windows (in the reference loop too).
#pragma once

#include <cstddef>
#include <vector>

#include "faults/fault_plan.hpp"

namespace ear::faults {

class FaultSchedule {
 public:
  /// Quantise the plan's dropout windows onto the facility's control
  /// rounds: a spec is active at round r iff it is active at time
  /// r * round_s (exactly the reference loop's per-round test).
  FaultSchedule(const FaultPlan& plan, double round_s, double max_sim_s);

  /// Any spec active at round `r`'s start? Constant between boundaries.
  [[nodiscard]] bool any_active(std::size_t round) const;

  /// First boundary round strictly after `round` (a round where the
  /// active-spec set may change), or `npos` when the set is final.
  [[nodiscard]] std::size_t next_boundary_after(std::size_t round) const;

  /// All boundary rounds, ascending and deduplicated (event-queue seeds).
  [[nodiscard]] const std::vector<std::size_t>& boundaries() const {
    return boundaries_;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  std::vector<std::size_t> boundaries_;  // ascending, unique
  // Activity of the whole plan over [boundary[i], boundary[i+1]) spans;
  // span 0 covers [0, boundary[0]).
  std::vector<bool> span_active_;
};

}  // namespace ear::faults
