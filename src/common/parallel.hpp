// The simulator's one thread executor: a Crew of persistent workers
// that claim loop iterations from a shared atomic index (dynamic
// balancing — long experiment points don't leave the other workers idle
// behind a static partition), and parallel_for, a single-use crew.
//
// Job-count resolution order: explicit argument > EAR_SIM_JOBS env var >
// std::thread::hardware_concurrency(). Everything degrades to serial
// execution for jobs <= 1, so callers need no special casing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ear::common {

/// Jobs to use when the caller does not say: EAR_SIM_JOBS if set to a
/// positive integer, else the hardware concurrency (at least 1).
[[nodiscard]] std::size_t default_jobs();

/// Resolve a user-supplied job count: 0 means "use default_jobs()".
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested);

/// Persistent workers behind an epoch spin-barrier. A condition-variable
/// pool costs ~10 us per wake, and the facility event core dispatches
/// once per window — every control round under a live federation — so
/// workers spin on an epoch counter instead: about a microsecond per
/// dispatch. A wait spins plainly first, then yields periodically to
/// stay polite on shared hosts. A crew of one thread has no helpers and
/// runs the claim loop serially, in index order, on the calling thread.
class Crew {
 public:
  using Body = std::function<void(std::size_t)>;

  /// `threads` = helpers + 1 (the caller); must be at least 1.
  explicit Crew(std::size_t threads);
  ~Crew();

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Run body(i) for every i in [0, n), each index claimed by one thread
  /// of the crew, the caller included; `body` must be safe to run
  /// concurrently for distinct i. Returns once every thread has stopped,
  /// rethrowing the first exception any index threw (which stops the
  /// claiming). One run at a time, from the thread that owns the crew.
  void run(std::size_t n, const Body& body);

 private:
  void claim();
  void worker();
  void stop();  // release and join the helpers

  std::size_t helpers_;
  const Body* body_ = nullptr;  // published by the epoch increment
  std::size_t n_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> quit_{false};
  std::mutex err_mu_;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;  // last: the workers use the above
};

/// Crew::run on a single-use crew of up to `jobs` threads (0 = auto,
/// never more than n), so jobs <= 1 is exactly a serial loop on the
/// caller; n == 0 returns at once.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t jobs = 0);

}  // namespace ear::common
