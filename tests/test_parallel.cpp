#include "common/parallel.hpp"

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ear::common {
namespace {

TEST(DefaultJobs, AtLeastOne) { EXPECT_GE(default_jobs(), 1u); }

TEST(DefaultJobs, EnvOverrideWins) {
  setenv("EAR_SIM_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3u);
  EXPECT_EQ(resolve_jobs(0), 3u);
  EXPECT_EQ(resolve_jobs(7), 7u);
  setenv("EAR_SIM_JOBS", "not-a-number", 1);
  EXPECT_GE(default_jobs(), 1u);  // malformed -> hardware fallback
  unsetenv("EAR_SIM_JOBS");
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SerialForOneJob) {
  // jobs = 1 must run on the calling thread, in order.
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, EmptyAndSingle) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, FirstExceptionRethrown) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 17) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, ResultsIndependentOfJobCount) {
  auto compute = [](std::size_t jobs) {
    std::vector<double> out(64);
    parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 1.0;
    }, jobs);
    return out;
  };
  EXPECT_EQ(compute(1), compute(4));
}

TEST(Crew, ReusedAcrossRunsCoversEachIndexOncePerRun) {
  Crew crew(4);
  for (const std::size_t n : {std::size_t{1000}, std::size_t{3},
                              std::size_t{0}, std::size_t{257}}) {
    std::vector<std::atomic<int>> hits(n);
    crew.run(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n " << n << ", index " << i;
    }
  }
}

TEST(Crew, ThrowingRunRethrowsAndLeavesNoStaleError) {
  Crew crew(4);
  EXPECT_THROW(crew.run(100,
                        [](std::size_t i) {
                          if (i == 17) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  std::atomic<std::size_t> calls{0};
  EXPECT_NO_THROW(crew.run(64, [&](std::size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  }));
  EXPECT_EQ(calls.load(), 64u);
}

TEST(Crew, OneThreadRunsInOrderOnTheCaller) {
  Crew crew(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  crew.run(6, [&](std::size_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(on_caller);
}

}  // namespace
}  // namespace ear::common
