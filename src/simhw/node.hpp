// SimNode: one simulated compute node.
//
// Owns the per-socket MSR files and hardware UFS loop state, the PMU
// counters and the RAPL/INM energy counters. The simulation engine drives
// it one application iteration at a time; EARL/EARD talk to it only
// through the same narrow interfaces they would use on real hardware
// (P-state request, MSR writes, counter reads).
//
// A node stores only what differs between nodes. The island-wide
// description (NodeSpec) is one shared immutable copy, and the
// per-socket state sits inline, so building a node allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "simhw/config.hpp"
#include "simhw/counters.hpp"
#include "simhw/demand.hpp"
#include "simhw/dither_lanes.hpp"
#include "simhw/hw_ufs.hpp"
#include "simhw/inm.hpp"
#include "simhw/msr.hpp"
#include "simhw/perf_model.hpp"
#include "simhw/power_model.hpp"
#include "simhw/rapl.hpp"

namespace ear::simhw {

/// Run-to-run measurement/execution variation, applied per iteration.
struct NoiseModel {
  double time_sigma = 0.004;   // relative jitter on iteration time
  double power_sigma = 0.005;  // relative jitter on node power
};

/// What one executed iteration looked like (ground truth; EARL sees only
/// the counter deltas).
struct IterationOutcome {
  PerfResult perf;
  PowerBreakdown power;
  common::Freq uncore_freq;  // time-averaged over the iteration
  common::Joules energy;     // DC node energy of the iteration
};

/// One iteration's run-to-run noise: two Rng::normal() draws from the
/// node's stream, the time's, then the power's.
using NoisePair = std::array<double, 2>;

/// What a phase-stable stretch looked like (see execute_stretch).
struct StretchSummary {
  std::size_t iterations = 0;   // iterations actually executed
  common::Freq uncore_freq{};   // closed-form IMC setting of the last
                                // iteration (default when none ran)
};

/// What every node of an island shares, immutable once built: the
/// hardware description, the noise model and the UFS loop tuning.
struct NodeSpec {
  NodeConfig config;
  NoiseModel noise;
  HwUfsParams ufs;
};

class SimNode {
 public:
  /// A node over its own copy of the description.
  SimNode(NodeConfig cfg, std::uint64_t seed,
          NoiseModel noise = {}, HwUfsParams ufs = {});
  /// A node over a shared description (Cluster builds one per island).
  /// `spec->config.sockets` must be 1..kMaxSockets.
  SimNode(std::shared_ptr<const NodeSpec> spec, std::uint64_t seed);

  // --- Control interfaces (what EARD exposes) ---------------------------
  /// Request a P-state for all cores (EAR pins the whole node).
  void set_cpu_pstate(Pstate p);
  void set_cpu_freq(common::Freq f) {
    set_cpu_pstate(config().pstates.pstate_for(f));
  }
  [[nodiscard]] Pstate cpu_pstate() const { return pstate_; }
  [[nodiscard]] common::Freq cpu_freq() const {
    return config().pstates.freq(pstate_);
  }

  /// Per-socket MSR access (privileged; EARD is the only caller in the
  /// real system). Writing UNCORE_RATIO_LIMIT constrains the governor.
  [[nodiscard]] MsrFile& msr(std::size_t socket);
  [[nodiscard]] const MsrFile& msr(std::size_t socket) const;
  /// Convenience: write the same uncore window on every socket.
  void set_uncore_limit_all(const UncoreRatioLimit& limit);
  [[nodiscard]] UncoreRatioLimit uncore_limit() const;

  // --- Measurement interfaces -------------------------------------------
  [[nodiscard]] const PmuCounters& counters() const { return counters_; }
  [[nodiscard]] const RaplDomains& rapl() const { return rapl_; }
  [[nodiscard]] const NodeManagerCounter& inm() const { return inm_; }
  [[nodiscard]] common::Secs clock() const { return clock_; }

  // --- Simulation driver -------------------------------------------------
  /// Execute one application iteration under the current settings: the
  /// steps of run_governors over this node alone, then finish_iteration.
  IterationOutcome execute_iteration(const WorkDemand& demand);

  /// The governor half of execute_iteration for every node of `nodes`,
  /// node i running `demands[i]`: plan each node's control periods, make
  /// every socket's dither draws in one dither_lanes pass (a node whose
  /// plan does not count owes them instead, see load_lanes) and every
  /// node's noise pair in one noise_lanes pass, and write each node's
  /// time-averaged uncore frequency to `f_imc[i]` and its pair to
  /// `noise[i]` (the node's stream resumes after it). A node's result
  /// and state are bitwise what its own execute_iteration would produce,
  /// because no node's governor or noise reads another node's state. The
  /// scratch is on the stack: nothing is allocated.
  static void run_governors(std::span<SimNode> nodes,
                            std::span<const WorkDemand> demands,
                            std::span<common::Freq> f_imc,
                            std::span<NoisePair> noise);

  /// The rest of execute_iteration, with the uncore averaging `f_imc`
  /// and the noise `noise`: what run_governors wrote for this node and
  /// `demand`, with nothing but MSR locks changed on the node in between.
  IterationOutcome finish_iteration(const WorkDemand& demand,
                                    common::Freq f_imc,
                                    const NoisePair& noise);

  /// Execute up to `max_iters` iterations of the same demand, stopping
  /// before any iteration that would *start* at or past `stop_before_s`
  /// (node clock) — the facility round-boundary rule, where the last
  /// iteration may overshoot the boundary. The control settings (P-state,
  /// MSR window, EPB) must not change mid-stretch; the caller owns that
  /// invariant (facility rounds only mutate them at barriers).
  ///
  /// The per-iteration governor period loop is replaced by its closed
  /// form (UfsLoopState::integrate_stretch), and everything that is
  /// constant across the stretch — effective clock, governor target,
  /// perf model, power but the DRAM term, PMU increments — is hoisted
  /// out of the loop and recomputed only when the bandwidth feedback
  /// moves. The per-iteration noise draws still happen, in the
  /// same order and from the same stream as execute_iteration, so:
  ///   * with the dither gate closed (dither_probability == 0, or no
  ///     headroom above the uncore floor) the node state afterwards is
  ///     bitwise identical to calling execute_iteration in a loop;
  ///   * with dithering, the per-iteration random IMC average is
  ///     replaced by its expectation — bounded by one 100 MHz dither bin
  ///     scaled by the dither probability (see docs/performance.md).
  StretchSummary execute_stretch(const WorkDemand& demand,
                                 std::size_t max_iters,
                                 double stop_before_s);

  /// execute_stretch with the first `row.pairs` iterations' noise draws
  /// taken from `row`, drawn ahead from this node's stream (`row.state`
  /// must be noise_state(); checked). Bitwise the plain stretch, stream
  /// included: a stretch longer than the row draws on from the state
  /// after the row's last pair, a shorter one resumes from the state
  /// after the last pair it used.
  StretchSummary execute_stretch(const WorkDemand& demand,
                                 std::size_t max_iters,
                                 double stop_before_s, const NoiseLane& row);

  /// One stretch of a batch: execute_stretch's arguments and its result.
  struct StretchRun {
    SimNode* node;
    const WorkDemand* demand;
    std::size_t max_iters;
    double stop_before_s;
    StretchSummary out;  // written by execute_stretches
  };

  /// execute_stretch for every run, the nodes distinct: prepare each
  /// stretch, predict its iterations from the first one's noise-free
  /// time, draw every prediction's noise in one noise_lanes pass, then
  /// run each stretch over its row. A run whose hoisted state is its
  /// pass's previous prepared run's (same NodeSpec, demand object,
  /// P-state, socket-0 EPB and uncore window, and bandwidth input)
  /// copies that stretch instead of preparing its own: the nodes of one
  /// job, listed together, share the work. Each node's state and result
  /// are bitwise its own execute_stretch's, whatever the prediction or
  /// the sharing. The scratch is on the stack: nothing is allocated.
  static void execute_stretches(std::span<StretchRun> runs);

  /// The node's noise stream (a NoiseLane's `state`).
  [[nodiscard]] const common::Rng::State& noise_state() const {
    return rng_.state();
  }

  /// Advance idle time (no application work; cores idle).
  void idle(common::Secs dt);

  /// Idle until the clock reads exactly `t`: idle(t - clock()), then the
  /// clock set to `t`, so a node idling to a round boundary lands on it
  /// whatever the rounding of the subtraction. No-op when the clock
  /// already reads `t` or later.
  void idle_until(common::Secs t);

  /// `rounds` calls of idle(dt) at once, bitwise identical in every
  /// field. With no active cores the governor settles on the MSR
  /// window's floor and the cores draw their idle power at any P-state,
  /// so every such round deposits the same whole number of 2^-30 J
  /// counts into each energy counter, and the counters take all of them
  /// in one multiply. The clock and the PMU integrals are doubles and
  /// replay their `rounds` additions.
  void settle_idle(common::Secs dt, std::uint64_t rounds);

  /// The INM counts one idle(dt) call deposits under the current MSR
  /// uncore window (the quantum settle_idle multiplies). Changes nothing.
  [[nodiscard]] std::uint64_t idle_inm_counts(common::Secs dt) const;

  /// The island's shared description: nodes of one Cluster return the
  /// same object.
  [[nodiscard]] const NodeConfig& config() const { return spec_->config; }
  /// Current (last-period) uncore frequency of `socket` (checked).
  [[nodiscard]] common::Freq uncore_freq(std::size_t socket = 0) const;
  /// The UFS loop state of `socket` (checked): its dither stream and the
  /// draws it owes that stream.
  [[nodiscard]] const UfsLoopState& governor(std::size_t socket) const;

 private:
  /// One socket's state: the register file and the UFS loop's dither
  /// state (its RAPL package counter is in rapl_).
  struct Socket {
    MsrFile msr;
    UfsLoopState ufs{Freq{}, 0};
  };

  /// The node's sockets: the first config().sockets entries.
  std::span<Socket> sockets() { return {sockets_.data(), config().sockets}; }
  /// The governor's inputs for `demand`, and the control periods an
  /// iteration spans at the current uncore setting.
  [[nodiscard]] UfsPeriods plan_governor(const WorkDemand& demand);
  /// Write the sockets' lanes of `plan` to `out`, the last socket's
  /// counted (it drives the reported value), and return how many: none
  /// when the plan draws nothing, or does not count, in which case every
  /// socket owes its draws (UfsLoopState::owe).
  std::size_t load_lanes(const UfsPeriods& plan, std::span<DitherLane> out);
  /// Take the lanes back after the pass and return the time-averaged
  /// uncore frequency of the periods.
  common::Freq settle_lanes(const UfsPeriods& plan,
                            std::span<const DitherLane> lanes);
  /// Settle every socket's governor at idle and return the frequency.
  common::Freq settle_governors_idle();
  /// A stretch's hoisted state (see execute_stretch; node.cpp).
  struct Stretch;
  /// The stretch's hoisted state and its first iteration's operating
  /// point. Call only when that iteration runs: it moves the governors.
  [[nodiscard]] Stretch prepare_stretch(const WorkDemand& demand);
  /// Whether prepare_stretch(demand) here would return `prev`, prepared
  /// on `other`, which has not moved since: the hoisted state is a pure
  /// function of the description, the demand, the P-state, socket 0's
  /// EPB and uncore window and the bandwidth input, each compared exactly.
  [[nodiscard]] bool shares_stretch(const SimNode& other, const Stretch& prev,
                                    const WorkDemand& demand) const;
  /// prepare_stretch for a node that shares_stretch `s`: a copy of it,
  /// with the governors held where refresh_stretch would leave them.
  [[nodiscard]] Stretch adopt_stretch(const Stretch& s);
  /// Integrate the governors and evaluate the model and power at
  /// `s.inputs`.
  void refresh_stretch(Stretch& s);
  /// The stretch loop over a prepared stretch, the noise from `row`
  /// while it lasts (null: every draw from the stream).
  StretchSummary run_stretch(Stretch& s, std::size_t max_iters,
                             double stop_before_s, const NoiseLane* row);

  /// Deposit `power` over `dt` into the energy counters, the package
  /// energy split evenly across the sockets.
  void deposit(const PowerBreakdown& power, common::Secs dt);
  /// The power breakdown of an idle stretch of `dt` with the uncore at
  /// `f_imc` (idle() and settle_idle share it).
  [[nodiscard]] PowerBreakdown idle_power(common::Freq f_imc,
                                          common::Secs dt) const;

  std::shared_ptr<const NodeSpec> spec_;
  common::Rng rng_;
  Pstate pstate_;
  std::array<Socket, kMaxSockets> sockets_{};
  PmuCounters counters_;
  RaplDomains rapl_;
  NodeManagerCounter inm_;
  common::Secs clock_{};
  // Bandwidth utilisation of the previous iteration: the governor is
  // reactive, and this is the one input it carries over.
  double last_bw_utilisation_ = 0.5;
};

}  // namespace ear::simhw
