#include "simhw/inm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ear::simhw {

void NodeManagerCounter::add(std::uint64_t counts, Secs dt,
                             std::uint64_t rounds) {
  EAR_CHECK_MSG(dt.value >= 0.0, "time must be non-negative");
  if (rounds == 0) return;
  // Replay the clock and remember the last deposit that crossed a whole
  // second: only that one publishes a value the others do not overwrite.
  std::uint64_t crossing = 0;  // 1-based; 0 = no second crossed
  double crossed_at = 0.0;     // elapsed time after that deposit
  double next_second = std::floor(elapsed_) + 1.0;
  double elapsed = elapsed_;
  for (std::uint64_t i = 1; i <= rounds; ++i) {
    elapsed += dt.value;
    if (elapsed >= next_second) {
      crossing = i;
      crossed_at = elapsed;
      next_second = std::floor(elapsed) + 1.0;
    }
  }
  const std::uint64_t before = counts_;
  counts_ = add_energy_counts(counts_, scale_energy_counts(counts, rounds));
  elapsed_ = elapsed;
  if (crossing > 0) {
    // Publish the counter as of the last whole-second boundary, assuming
    // power was uniform across the crossing deposit (1 s sampling in the
    // BMC): the counts past the boundary are its overshoot's share.
    const double overshoot = crossed_at - std::floor(crossed_at);
    const auto tail = static_cast<std::uint64_t>(
        static_cast<double>(counts) * (overshoot / dt.value));
    published_ = before + crossing * counts - std::min(tail, counts);
  }
}

}  // namespace ear::simhw
