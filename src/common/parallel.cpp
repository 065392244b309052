#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace ear::common {

namespace {

/// Spins between yields while waiting on the epoch or the done count.
constexpr std::size_t kSpinLimit = 4096;

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
  std::size_t spins = 0;
  while (done_.load(std::memory_order_acquire) < helpers_) {
    if (++spins > kSpinLimit) {
      std::this_thread::yield();
      spins = 0;
    }
  }
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
    std::size_t spins = 0;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
      if (++spins > kSpinLimit) {
        std::this_thread::yield();
        spins = 0;
      }
    }
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
