// Facility tier: thousands of heterogeneous nodes, a job arrival
// stream, and hierarchical EARGM federation under a facility-wide
// power cap.
//
// The facility is a set of *islands* — homogeneous partitions built
// from the simhw node-config factories (Skylake 6148, Ice Lake 8358,
// GPU 6142M) — fed by a JobQueue (arrival stream + backfill). Execution
// is round-based: every control round each node advances its work to
// the round boundary, per-node average powers (integer milliwatts) are
// derived from the INM energy counters (integer 2^-30 J counts), node/
// island dropout faults hide readings, and the FederatedEargm steps the
// island P-state caps and re-splits the facility budget. Results are
// bitwise-deterministic at any `jobs` (worker-thread) count: nodes are
// advanced independently, energy and power sums are integers, and the
// fault stream is drawn in island/node index order.
//
// Ground truth cannot go non-finite: a counter refuses a negative or
// non-finite deposit with a check.
//
// Chaos invariants (checked into FacilityResult::violations):
//   * the cap degrades gracefully — transient overruns are expected
//     (island caps step one P-state per round) but an overrun beyond
//     `cap_slack_pct` must not persist longer than `overrun_grace`
//     consecutive rounds unless every island is already throttled to
//     the deepest limit (degraded, nothing left to shed);
//   * the facility must drain: hitting `max_sim_s` with jobs still
//     running is a wedge, not a result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eargm/federation.hpp"
#include "faults/fault_plan.hpp"
#include "sim/job_queue.hpp"
#include "simhw/config.hpp"
#include "simhw/hw_ufs.hpp"
#include "simhw/node.hpp"

namespace ear::sim {

/// Kept only because perfbench/driver.cpp assigns FacilityConfig::core.
enum class SimCore { kEvent };

/// One homogeneous partition of the facility.
struct FacilityIsland {
  simhw::NodeConfig node_config;
  std::size_t nodes = 0;
};

struct FacilityConfig {
  std::vector<FacilityIsland> islands;
  std::vector<FacilityJob> jobs;
  /// Control round length in simulated seconds (EARGM period): a whole
  /// multiple of 1/1024 s (see check_facility_timing).
  double round_s = 1.0;
  /// Facility power cap; 0 disables the federation entirely.
  common::Power budget{0.0};
  /// Island-tier manager template (margins, deepest limit).
  eargm::EargmConfig island_eargm{};
  /// Even-split floor share of the budget (see FederationConfig).
  double floor_share = 0.25;
  bool backfill = true;
  std::uint64_t seed = 1;
  /// Worker threads for the per-round node advance (0 = auto). Results
  /// are identical for any value.
  std::size_t sim_jobs = 1;
  /// node_dropout / island_dropout specs (other families are ignored at
  /// this tier — they live in the per-node injector).
  faults::FaultPlan fault_plan{};
  simhw::NoiseModel noise{};
  /// UFS governor parameters for every node. dither_probability == 0
  /// closes the dither gate, which makes the event core bitwise-equal to
  /// the reference loop (and both draw-free in the governor).
  simhw::HwUfsParams ufs{};
  /// Unread: run_facility is the only engine (see SimCore).
  SimCore core = SimCore::kEvent;
  /// Hard stop; reaching it with unfinished jobs is a violation. At most
  /// the time a node's energy counter lasts at 1 kW (199 days).
  double max_sim_s = 36000.0;
  /// Documented cap slack: persistent overruns beyond this are a
  /// violation (transients within `overrun_grace` rounds are not).
  double cap_slack_pct = 15.0;
  std::size_t overrun_grace = 30;
};

/// Host-side wall-clock instrumentation. Not part of the simulated
/// result (differential tests ignore it): build covers facility assembly
/// (clusters, daemons, federation) and core covers the round loop
/// itself — the part the reference loop implements differently.
struct FacilityWalls {
  double build_s = 0.0;
  double core_s = 0.0;

  friend bool operator==(const FacilityWalls&,
                         const FacilityWalls&) = default;
};

struct FacilityJobOutcome {
  std::string name;
  std::size_t island = 0;
  std::size_t nodes = 0;
  double submit_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  double energy_j = 0.0;

  [[nodiscard]] double wait_s() const { return start_s - submit_s; }
  [[nodiscard]] double turnaround_s() const { return end_s - submit_s; }

  friend bool operator==(const FacilityJobOutcome&,
                         const FacilityJobOutcome&) = default;
};

struct FacilityIslandOutcome {
  std::string node_type;
  std::size_t nodes = 0;
  double energy_j = 0.0;
  double final_budget_w = 0.0;  // 0 when uncapped
  std::size_t final_limit = 0;  // P-state cap at the end
  std::size_t throttles = 0;
  std::size_t releases = 0;
  std::size_t blind_rounds = 0;
  std::size_t missed_readings = 0;
  std::size_t resumed_nodes = 0;

  friend bool operator==(const FacilityIslandOutcome&,
                         const FacilityIslandOutcome&) = default;
};

struct FacilityResult {
  std::vector<FacilityJobOutcome> jobs;
  std::vector<FacilityIslandOutcome> islands;
  double makespan_s = 0.0;
  double facility_energy_j = 0.0;
  double peak_power_w = 0.0;        // ground truth, before dropouts
  double budget_w = 0.0;            // 0 when uncapped
  std::size_t rounds = 0;
  std::size_t cap_overrun_rounds = 0;  // rounds with power above budget
  double worst_overrun_w = 0.0;
  std::size_t redistributions = 0;
  std::size_t facility_blind_rounds = 0;
  std::size_t backfills = 0;
  std::size_t peak_pending_jobs = 0;
  faults::FaultReport faults;
  /// Empty when every chaos invariant held.
  std::vector<std::string> violations;
  FacilityWalls walls;

  [[nodiscard]] double mean_wait_s() const;
  [[nodiscard]] double mean_turnaround_s() const;

  /// Field-by-field, walls included: copy one side's walls over the
  /// other to compare only what was simulated.
  friend bool operator==(const FacilityResult&,
                         const FacilityResult&) = default;
};

/// Throws ConfigError unless `cfg.round_s` is a positive whole multiple
/// of 1/1024 s and `cfg.max_sim_s` lies between one round and the time a
/// node's 64-bit energy counter lasts at 1 kW. The first rule makes every
/// round boundary r * round_s exact in floating point, so every whole
/// idle round lasts exactly round_s and deposits the same energy — what
/// lets the event core settle idle rounds lazily and still match the
/// reference loop bitwise. 0.1 s, for one, is refused.
void check_facility_timing(const FacilityConfig& cfg);

/// Run the facility to completion (or max_sim_s) on the event-driven
/// sharded core (src/sim/event_core.cpp, src/sim/shard.*). Deterministic
/// for a given config at any sim_jobs value.
///
/// Same contract as the reference round loop — the executable
/// specification in tests/oracles/facility_reference.hpp — but instead
/// of stepping every node through every 10 ms governor period of every
/// control round, the engine:
///
///   * integrates each node's energy/time analytically through
///     phase-stable stretches (simhw::SimNode::execute_stretch —
///     memoised iteration kernel + closed-form UFS governor
///     integration);
///   * advances shard-local state (one shard per island, per-shard RNG
///     streams rooted at mix_seed(seed, island)) in parallel on one
///     common::Crew, workers claiming fixed-size node chunks, through
///     multi-round *windows* whenever no control-plane event (job
///     arrival, fault boundary, EARGM cap round, pending admission) can
///     fall inside the window;
///   * visits only busy nodes: a node with no work left on a round
///     boundary sits out, and its whole idle rounds are settled in O(1)
///     when an admission needs it (simhw::SimNode::settle_idle); its
///     energy at any round and its reading follow from its integer
///     counters meanwhile;
///   * merges cross-shard effects serially in shard-index order at
///     barrier rounds, replaying readings, fault draws and job
///     completions round-by-round — each island's power is its idle
///     nodes' constant sum plus its busy nodes' readings, so an uncapped
///     barrier costs O(islands + chunks), not O(nodes).
///
/// Equivalence: bitwise-identical to the reference loop whenever the UFS
/// dither gate is closed (cfg.ufs.dither_probability == 0 — neither
/// draws governor randomness then); tolerance-bounded otherwise (the
/// Bernoulli per-period dither average is replaced by its expectation;
/// see docs/performance.md for the bound).
[[nodiscard]] FacilityResult run_facility(const FacilityConfig& cfg);

/// Synthesize a heterogeneous facility + job mix: `nodes` total nodes
/// over `islands` partitions cycling the three node types, and
/// `job_count` jobs with catalog-flavoured synthetic work, mixed node
/// counts and a jittered arrival stream — all derived from `seed`.
[[nodiscard]] FacilityConfig make_facility_config(std::size_t nodes,
                                                  std::size_t islands,
                                                  std::size_t job_count,
                                                  std::uint64_t seed);

/// Render the island / job / cap tables.
void print_facility_report(const FacilityResult& r);

}  // namespace ear::sim
