// Hardware uncore frequency scaling (UFS) control loop.
//
// Models the behaviour the paper documents for Skylake (§IV, Intel patent
// US9323316B2, Hackenberg'15, Schoene'19). The loop re-evaluates roughly
// every 10 ms and is keyed on the fastest active core's activity-weighted
// effective frequency plus memory-bandwidth utilisation:
//
//  1. no active cores                          -> minimum
//  2. bandwidth utilisation high (no AVX cap)  -> maximum   (memory-bound)
//  3. activity-weighted core freq >= threshold -> maximum   (conservative)
//  4. otherwise track the core clock minus an offset, with extra drops for
//     near-idle sockets (GPU busy-wait) and wide MPI-wait phases where
//     cores dip into C-states;
//  5. the EPB hint biases powersave configurations one bin lower;
//  6. the UNCORE_RATIO_LIMIT window always wins, so pinning min == max
//     through MSR 0x620 disables the loop entirely.
//
// Rules 2-3 are the inefficiency the paper's explicit UFS exploits: the
// hardware keeps the fabric at full speed for any busy socket even when
// the application would not notice a slower uncore.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"
#include "simhw/config.hpp"
#include "simhw/dither_lanes.hpp"
#include "simhw/msr.hpp"

namespace ear::simhw {

using common::Freq;

/// Inputs the governor samples from the socket each evaluation period.
struct UfsInputs {
  Freq requested_core_freq;   // OS/EARL-requested P-state frequency
  /// Time-averaged effective clock of the fastest active core: the
  /// VPI-weighted blend of the requested frequency and the AVX512 licence
  /// cap (a code that is 35 % AVX512 still runs at the requested clock
  /// most of the time, so the fabric stays fast; a 100 % AVX512 code is
  /// pinned at the licence frequency and the fabric follows it down).
  Freq effective_core_freq;
  double bw_utilisation = 0.0;   // achieved/available memory bandwidth
  /// Fraction of time cores spend in relaxed waits (C1/C1E entry during
  /// MPI progression); dense busy-wait spinning does not count.
  double relaxed_fraction = 0.0;
  std::size_t active_cores = 0;
  std::uint64_t epb = 6;      // IA32_ENERGY_PERF_BIAS (0=perf .. 15=powersave)
};

/// Tuning constants of the modelled control loop.
struct HwUfsParams {
  double evaluation_period_s = 0.010;  // 10 ms (Schoene'19)
  /// Rule 2: utilisation at/above this pins the uncore to the max limit.
  double high_bw_threshold = 0.30;
  /// Licence throttling is "active" (and rule 2 skipped) when the
  /// effective clock sits at least this far below the request.
  Freq avx_throttle_min = Freq::mhz(30);
  /// Rule 3: effective core clocks within this margin of the node's
  /// nominal frequency pin the uncore to max — a nominal-or-turbo request
  /// always keeps the fabric fast (2.3 GHz on the 2.4 GHz Skylake).
  Freq high_freq_margin = Freq::mhz(100);
  /// Weight of relaxed-wait time when discounting the core frequency.
  double relaxed_weight = 0.5;
  /// Rule 4: tracking offset below the (weighted) core clock.
  Freq track_offset = Freq::mhz(200);
  /// Near-idle socket drop (GPU busy-wait case).
  double low_bw_threshold = 0.02;
  std::size_t low_activity_cores = 2;
  Freq low_activity_drop = Freq::mhz(400);
  /// Wide MPI-wait drop: many cores repeatedly entering C-states.
  double relaxed_threshold = 0.15;
  double relaxed_bw_threshold = 0.08;
  Freq relaxed_drop = Freq::mhz(400);
  /// Powersave-leaning EPB values shave one extra bin.
  std::uint64_t epb_powersave_threshold = 8;
  /// Probability of dithering one bin below target in a period (the HW
  /// loop hunts; this is why the paper measures 2.39 GHz averages against
  /// a 2.4 GHz limit).
  double dither_probability = 0.12;
};

/// Steady-state (dither-free) target of the modelled control loop; shared
/// between the governor and calibration code that needs to predict it.
[[nodiscard]] Freq hw_ufs_steady_target(const NodeConfig& cfg,
                                        const HwUfsParams& params,
                                        const UfsInputs& in);

/// What the loop settles on with no active cores, for any number of
/// periods: the range floor clamped to the MSR window (rule 1; a floor
/// target cannot open the dither gate). A pure function of the window.
[[nodiscard]] Freq hw_ufs_idle_freq(const NodeConfig& cfg,
                                    const UncoreRatioLimit& limit);

/// Closed-form summary of a phase-stable stretch: everything the loop's
/// per-period behaviour under constant inputs can be reduced to. The
/// per-period distribution has at most two support points (steady, or one
/// bin below when the dither gate can open), so a stretch of any length
/// is fully described by the two frequencies and the dither probability.
struct UfsStretchSummary {
  Freq steady;        // MSR-windowed steady-state target
  Freq dithered;      // MSR-windowed one-bin-down value (== steady when
                      // the dither gate is closed)
  bool can_dither = false;  // gate open (target above the range minimum
                            // and dither_probability > 0)
  /// Expected per-period frequency: exactly `steady` when the gate is
  /// closed, (1-p)*steady + p*dithered truncated to whole kHz otherwise
  /// (the model's frequency grid is integer kHz everywhere).
  [[nodiscard]] Freq expected_freq(double dither_probability) const {
    if (!can_dither) return steady;
    const double khz = (1.0 - dither_probability) *
                           static_cast<double>(steady.as_khz()) +
                       dither_probability *
                           static_cast<double>(dithered.as_khz());
    return Freq::khz(static_cast<std::uint64_t>(khz));
  }
};

/// A stretch of control periods under constant inputs, planned before any
/// draw: the two selections, the period count and the dither threshold.
/// Every socket of a node runs its node's plan on its own stream.
struct UfsPeriods {
  UfsStretchSummary summary;
  std::uint64_t periods = 0;
  std::uint64_t threshold = 0;  // see draw_dithers (open gates only)

  /// An open gate over at least one period: one draw per period.
  [[nodiscard]] bool draws() const {
    return summary.can_dither && periods > 0;
  }
  /// Whether average() reads the dither count: the plan draws and its
  /// one-bin-down selection differs from the steady one. A window that
  /// holds both on one value (a cap one bin or more below the target, or
  /// min == max) averages to `steady` for any count.
  [[nodiscard]] bool counts() const {
    return draws() && summary.dithered != summary.steady;
  }
  /// The time-averaged selection when `dithers` of the periods dithered:
  /// the per-period sum (evaluate_periods) over the period count,
  /// truncated to whole kHz. Needs at least one period.
  [[nodiscard]] Freq average(std::uint64_t dithers) const;
};

/// Plan `periods` periods under `in` and `limit`. Precondition: `periods`
/// times the steady selection in kHz is below 2^53, so every partial sum
/// is an exact double (docs/performance.md §3, "The dither loop").
[[nodiscard]] UfsPeriods plan_ufs_periods(const NodeConfig& cfg,
                                          const HwUfsParams& params,
                                          const UfsInputs& in,
                                          const UncoreRatioLimit& limit,
                                          std::size_t periods);

/// One socket's control-loop state: its dither stream and the selection
/// of the last period. That is all of the loop that differs between
/// sockets, so a node keeps one inline per socket; the node description
/// and tuning it runs against are shared by every node of an island and
/// passed in by reference.
class UfsLoopState {
 public:
  UfsLoopState(Freq initial, std::uint64_t seed)
      : rng_(seed), current_(initial) {}

  /// Evaluate `periods` consecutive control-loop periods under constant
  /// inputs and return the sum of the selected frequencies in kHz.
  /// Bitwise identical to evaluating one period at a time and summing
  /// `current().as_khz()` into a double: the steady-state target is a
  /// pure function of the inputs, so it is computed once, and the rng
  /// consumes exactly the draws the per-period loop would (one per period
  /// when the dither gate can open, none otherwise — a gate that cannot
  /// change the selection, i.e. dither_probability <= 0 or NaN, counts as
  /// closed and consumes nothing). `current()` afterwards is the last
  /// period's selection. `periods == 0` is a no-op returning 0. The
  /// precondition of plan_ufs_periods applies.
  double evaluate_periods(const NodeConfig& cfg, const HwUfsParams& params,
                          const UfsInputs& in, const UncoreRatioLimit& limit,
                          std::size_t periods);

  /// This socket's stream as a lane of a dither pass over `plan`
  /// (dither_lanes); `counted` when the caller reads its dither count.
  [[nodiscard]] DitherLane lane(const UfsPeriods& plan, bool counted) const {
    return DitherLane{.state = rng_.state(),
                      .periods = plan.periods,
                      .threshold = plan.threshold,
                      .counted = counted};
  }

  /// Close `plan` after its pass: take the stream back from `lane` (null
  /// when the plan draws nothing) and select the last period, one bin
  /// down when the lane's last draw dithered. A plan of no periods
  /// changes nothing.
  void finish(const UfsPeriods& plan, const DitherLane* lane);

  /// Closed-form stretch integration: summarise the per-period behaviour
  /// under constant inputs without advancing the RNG, and leave
  /// `current()` at the steady value (the overwhelmingly likely last
  /// selection). When the dither gate is closed this is *exactly* what
  /// `evaluate_periods` computes per period; when it is open the summary's
  /// `expected_freq` replaces the per-period Bernoulli sum with its
  /// expectation (the event core's documented tolerance source).
  UfsStretchSummary integrate_stretch(const NodeConfig& cfg,
                                      const HwUfsParams& params,
                                      const UfsInputs& in,
                                      const UncoreRatioLimit& limit);

  /// Leave `current()` where integrate_stretch leaves it for a stretch
  /// it summarised as `s`: on the steady selection.
  void hold(const UfsStretchSummary& s) { current_ = s.steady; }

  /// Idle fast path: with no active cores any number of periods settles
  /// on hw_ufs_idle_freq — no rng, no input vector. Bitwise identical to
  /// evaluate_periods with an idle input at any period count (proved in
  /// test_node.cpp).
  Freq settle_idle(const NodeConfig& cfg, const UncoreRatioLimit& limit) {
    current_ = hw_ufs_idle_freq(cfg, limit);
    return current_;
  }

  [[nodiscard]] Freq current() const { return current_; }

 private:
  common::Rng rng_;
  Freq current_;
};

/// A standalone governor for one socket: the loop state together with
/// its own copy of the node description and tuning.
class HwUfsGovernor {
 public:
  HwUfsGovernor(const NodeConfig& cfg, HwUfsParams params,
                std::uint64_t seed);

  /// Evaluate the control loop once (one ~10 ms period) and return the
  /// uncore frequency for the next period. `limit` is the current MSR
  /// 0x620 window.
  Freq evaluate(const UfsInputs& in, const UncoreRatioLimit& limit);

  /// UfsLoopState::evaluate_periods over this governor's config.
  double evaluate_periods(const UfsInputs& in, const UncoreRatioLimit& limit,
                          std::size_t periods) {
    return state_.evaluate_periods(cfg_, params_, in, limit, periods);
  }

  [[nodiscard]] Freq current() const { return state_.current(); }

 private:
  NodeConfig cfg_;
  HwUfsParams params_;
  UfsLoopState state_;
};

}  // namespace ear::simhw
