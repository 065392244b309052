#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ear::common {

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

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t jobs, std::size_t grain) {
  const std::size_t threads = std::min(resolve_jobs(jobs), n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t step = grain == 0 ? 1 : grain;

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;

  auto drain = [&] {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(step, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + step, n);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          body(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(err_mu);
            if (!first_error) first_error = std::current_exception();
          }
          next.store(n, std::memory_order_relaxed);  // stop claiming work
          return;
        }
      }
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) helpers.emplace_back(drain);
  drain();  // the caller works too
  for (auto& h : helpers) h.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ear::common
