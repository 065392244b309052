// The banner, footer and seed that ear_paper and bench_cluster_scale
// share.
#pragma once

#include <cstdint>
#include <cstdio>

namespace ear::bench {

inline constexpr std::uint64_t kSeed = 1234;

inline void banner(const char* what) {
  std::printf("\n============================================================\n"
              "%s\n"
              "============================================================\n",
              what);
}

inline void footer() {
  std::printf(
      "(values are simulator measurements; 'paper' columns quote the\n"
      " published testbed numbers — shapes, not absolutes, are expected\n"
      " to match; see EXPERIMENTS.md)\n");
}

}  // namespace ear::bench
