#include "simhw/inm.hpp"

namespace ear::simhw {

void NodeManagerCounter::add(std::uint64_t counts, Secs dt,
                             std::uint64_t rounds) {
  EAR_CHECK_MSG(dt.value >= 0.0, "time must be non-negative");
  if (rounds == 0) return;
  // Replay the clock and remember the last deposit that crossed a whole
  // second: only that one publishes a value the others do not overwrite.
  std::uint64_t crossing = 0;  // 1-based; 0 = no second crossed
  double crossed_at = 0.0;     // elapsed time after that deposit
  double next_second = whole_seconds(elapsed_) + 1.0;
  double elapsed = elapsed_;
  for (std::uint64_t i = 1; i <= rounds; ++i) {
    elapsed += dt.value;
    if (elapsed >= next_second) {
      crossing = i;
      crossed_at = elapsed;
      next_second = whole_seconds(elapsed) + 1.0;
    }
  }
  const std::uint64_t before = counts_;
  counts_ = add_energy_counts(counts_, scale_energy_counts(counts, rounds));
  elapsed_ = elapsed;
  if (crossing > 0) {
    published_ =
        published_at(before + crossing * counts, counts, crossed_at, dt);
  }
}

}  // namespace ear::simhw
