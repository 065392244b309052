#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace ear::common {

namespace {

/// Plain spins before the first yield while waiting on the epoch or the
/// done count: about a millisecond, which keeps the helpers runnable
/// through the short serial gaps between windows. A crew that yielded
/// from the start was seen to stay on its creator's CPU for about a
/// second after launch.
constexpr std::size_t kBusySpins = std::size_t{1} << 20;
/// Spins between yields after that.
constexpr std::size_t kSpinLimit = 4096;

/// Wait until `ready()` holds: kBusySpins plain spins, then a yield every
/// kSpinLimit spins, polite on a shared host during long serial phases.
template <class Ready>
void wait_until(const Ready& ready) {
  for (std::size_t i = 0; i < kBusySpins; ++i) {
    if (ready()) return;
  }
  std::size_t spins = 0;
  while (!ready()) {
    if (++spins > kSpinLimit) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

}  // namespace

std::size_t default_jobs() {
  if (const char* env = std::getenv("EAR_SIM_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t resolve_jobs(std::size_t requested) {
  return requested > 0 ? requested : default_jobs();
}

Crew::Crew(std::size_t threads) : helpers_(threads - 1) {
  EAR_CHECK(threads >= 1);
  threads_.reserve(helpers_);
  try {
    for (std::size_t h = 0; h < helpers_; ++h) {
      threads_.emplace_back([this] { worker(); });
    }
  } catch (...) {
    stop();  // a std::thread destroyed unjoined would terminate
    throw;
  }
}

Crew::~Crew() { stop(); }

void Crew::stop() {
  quit_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
}

void Crew::run(std::size_t n, const Body& body) {
  body_ = &body;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  claim();
  wait_until(
      [this] { return done_.load(std::memory_order_acquire) >= helpers_; });
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Crew::claim() {
  try {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_) return;
      (*body_)(i);
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(err_mu_);
      if (!error_) error_ = std::current_exception();
    }
    next_.store(n_, std::memory_order_relaxed);  // stop claiming work
  }
}

void Crew::worker() {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t e = seen;
    wait_until([&] {
      return (e = epoch_.load(std::memory_order_acquire)) != seen;
    });
    seen = e;
    if (quit_.load(std::memory_order_relaxed)) return;
    claim();
    done_.fetch_add(1, std::memory_order_release);
  }
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t jobs) {
  if (n == 0) return;
  Crew crew(std::min(resolve_jobs(jobs), n));
  crew.run(n, body);
}

}  // namespace ear::common
