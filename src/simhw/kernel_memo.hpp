// IterationMemo: evaluate_iteration() behind a one-entry last-point cache.
//
// The analytic performance model is pure: for a fixed NodeConfig the
// result depends only on (demand, f_cpu, f_imc), so a repeat of the last
// exact key can return the stored result. No simulator path holds one:
// a per-node memo cost every node 240 bytes and lost time on both
// benchmark workloads, so nodes evaluate the model directly and the
// facility shares a job's hoisted stretch instead (docs/performance.md
// §3). The repository benchmark's driver replays its recorded model
// points through one per slot to report simhw.memo_hit_ratio, and
// test_node pins it bitwise against the kernel.
//
// Determinism: the entry stores the *noise-free* model output for the
// exact key, bit for bit — run-to-run noise is the caller's to apply
// after the lookup — so a hit returns the same bytes as the direct evaluation
// it replaces, and results never depend on what happened to be cached.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simhw/config.hpp"
#include "simhw/demand.hpp"
#include "simhw/perf_model.hpp"

namespace ear::simhw {

class IterationMemo {
 public:
  /// The memo is bound to one node configuration; `evaluate` must be
  /// called with that same configuration.
  explicit IterationMemo(const NodeConfig& /*cfg*/) {}

  /// Same contract (and bitwise-identical results) as
  /// evaluate_iteration(cfg, demand, f_cpu, f_imc). A call whose demand
  /// and both frequencies equal the previous call's is a hit; any other
  /// call evaluates the kernel and replaces the entry.
  PerfResult evaluate(const NodeConfig& cfg, const WorkDemand& demand,
                      Freq f_cpu, Freq f_imc);

  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }

 private:
  bool valid_ = false;
  std::uint64_t cpu_khz_ = 0;
  std::uint64_t imc_khz_ = 0;
  WorkDemand demand_{};
  PerfResult result_{};
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace ear::simhw
