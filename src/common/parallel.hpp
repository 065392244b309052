// Minimal parallel-execution layer for the campaign engine: a
// parallel_for that fans loop iterations out over a shared atomic index
// (dynamic balancing — long experiment points don't leave the other
// workers idle behind a static partition).
//
// Job-count resolution order: explicit argument > EAR_SIM_JOBS env var >
// std::thread::hardware_concurrency(). Everything degrades to serial
// execution for jobs <= 1, so callers need no special casing.
#pragma once

#include <cstddef>
#include <functional>

namespace ear::common {

/// Jobs to use when the caller does not say: EAR_SIM_JOBS if set to a
/// positive integer, else the hardware concurrency (at least 1).
[[nodiscard]] std::size_t default_jobs();

/// Resolve a user-supplied job count: 0 means "use default_jobs()".
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested);

/// Run body(i) for every i in [0, n) on up to `jobs` threads (0 = auto).
/// Iterations are claimed dynamically from a shared counter in chunks of
/// `grain` (0 behaves as 1); a grain above 1 amortises the atomic claim
/// over cheap iterations while keeping the balancing dynamic. The calling
/// thread participates, so jobs <= 1 is exactly a serial loop. The first
/// exception thrown by any iteration is rethrown on the caller after all
/// workers stop.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t jobs = 0, std::size_t grain = 1);

}  // namespace ear::common
