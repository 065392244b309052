// Event-driven sharded facility engine.
//
// Same contract as run_facility_reference — one FacilityConfig in, one
// FacilityResult out — but instead of stepping every node through every
// 10 ms governor period of every control round, the engine:
//
//   * integrates each node's energy/time analytically through
//     phase-stable stretches (simhw::SimNode::execute_stretch — memoised
//     iteration kernel + closed-form UFS governor integration);
//   * advances shard-local state (one shard per island, per-shard RNG
//     streams rooted at mix_seed(seed, island)) in parallel, workers
//     claiming fixed-size node chunks, through multi-round *windows*
//     whenever no control-plane event (job arrival, fault boundary,
//     EARGM cap round, pending admission) can fall inside the window;
//   * merges cross-shard effects serially in shard-index order at
//     barrier rounds, replaying readings, fault draws and job
//     completions round-by-round from per-round snapshots — the exact
//     order and arithmetic of the reference loop.
//
// Equivalence: bitwise-identical to the reference loop whenever the UFS
// dither gate is closed (cfg.ufs.dither_probability == 0 — neither
// engine draws governor randomness then); tolerance-bounded otherwise
// (the Bernoulli per-period dither average is replaced by its
// expectation; see docs/performance.md for the bound).
#pragma once

#include "sim/facility.hpp"

namespace ear::sim {

[[nodiscard]] FacilityResult run_facility_event(const FacilityConfig& cfg);

}  // namespace ear::sim
