#include "simhw/hw_ufs.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace ear::simhw {

Freq hw_ufs_steady_target(const NodeConfig& cfg, const HwUfsParams& params,
                          const UfsInputs& in) {
  const UncoreRange& range = cfg.uncore;
  if (in.active_cores == 0) return range.min();

  const bool avx_throttled =
      in.effective_core_freq + params.avx_throttle_min <=
      in.requested_core_freq;

  // Rule 2: memory-bound sockets keep the fabric at full speed. The AVX
  // licence case is excluded: when the vector units throttle the cores the
  // loop follows the core clock down (the DGEMM behaviour in Table IV).
  if (!avx_throttled && in.bw_utilisation >= params.high_bw_threshold) {
    return range.max();
  }

  // Rule 3: a fast (nominal/turbo) effective core clock pins the fabric
  // at full speed regardless of memory traffic — the conservative HW
  // behaviour the paper's motivation section documents.
  if (in.effective_core_freq + params.high_freq_margin >=
      cfg.pstates.nominal()) {
    return range.max();
  }

  // Rule 4: even below the threshold, a scalar socket with ordinary
  // activity keeps the maximum (the paper's Table VI: POP/DUMSES/AFiD/
  // HPCG hold IMC ~2.39 with the CPU at 1.8-2.2 GHz). The loop only
  // follows the cores down in three situations: active licence
  // throttling, a near-idle socket (GPU busy-wait), or wide relaxed MPI
  // waits where cores keep dipping into C-states.
  const bool near_idle = in.active_cores <= params.low_activity_cores &&
                         in.bw_utilisation < params.low_bw_threshold;
  const bool wide_relaxed =
      in.relaxed_fraction > params.relaxed_threshold &&
      in.bw_utilisation < params.relaxed_bw_threshold;
  if (!avx_throttled && !near_idle && !wide_relaxed) return range.max();

  // Rule 5: track the activity-weighted core clock (relaxed MPI waits
  // discount it, dense spinning does not), with extra drops for the two
  // idle-ish cases.
  const double weight = 1.0 - params.relaxed_weight * in.relaxed_fraction;
  const Freq f_act = Freq::khz(static_cast<std::uint64_t>(
      static_cast<double>(in.effective_core_freq.as_khz()) * weight));
  Freq target = f_act - params.track_offset;
  if (near_idle) {
    target = target - params.low_activity_drop;
  } else if (wide_relaxed) {
    target = target - params.relaxed_drop;
  }
  if (in.epb >= params.epb_powersave_threshold) {
    target = range.step_down(target);
  }
  return range.clamp(target);
}

namespace {

/// The target, MSR window and dither gate every entry point shares.
UfsStretchSummary summarise(const NodeConfig& cfg, const HwUfsParams& params,
                            const UfsInputs& in,
                            const UncoreRatioLimit& limit) {
  const UncoreRange& range = cfg.uncore;
  const Freq target = hw_ufs_steady_target(cfg, params, in);

  // Respect the MSR window (this is how explicit UFS overrides the loop).
  const Freq lo = range.clamp(limit.min_freq);
  const Freq hi = range.clamp(limit.max_freq);
  const auto window = [&](Freq f) {
    if (f < lo) f = lo;
    if (f > hi) f = hi;
    return f;
  };

  // Only two outcomes exist per period: the steady target, or — when the
  // dither gate can open — one bin below it (the real loop hunts around
  // its setpoint, which is what makes measured averages land just below
  // the limit, 2.39 vs 2.40). A probability of zero, less or NaN can
  // never flip a selection, so it closes the gate outright and the rng
  // is left untouched — dither-free configurations are exactly as
  // deterministic as the no-headroom case.
  UfsStretchSummary out;
  out.steady = window(target);
  out.can_dither = target > range.min() && params.dither_probability > 0.0;
  out.dithered =
      out.can_dither ? window(range.step_down(target)) : out.steady;
  return out;
}

/// The draw_dithers threshold: ceil(p * 2^53), the integer form of
/// `uniform() < p`. Only for an open gate (p > 0).
std::uint64_t dither_threshold(const HwUfsParams& params) {
  // uniform() is k * 2^-53 with k the draw's top 53 bits, so uniform() < p
  // holds exactly when k < p * 2^53 (a power-of-two scaling, exact for
  // every p < 1), i.e. when k < ceil(p * 2^53). Every k passes once
  // p >= 1.
  const double p = params.dither_probability;
  return p >= 1.0 ? kMaxDitherThreshold
                  : static_cast<std::uint64_t>(std::ceil(p * 0x1p53));
}

/// The sum of the selected frequencies in kHz, `dithers` of the periods
/// one bin down: bitwise the per-period sum in a double, because every
/// partial sum is an integer below 2^53 (plan_ufs_periods checks).
double period_sum(const UfsPeriods& plan, std::uint64_t dithers) {
  return static_cast<double>(
      dithers * plan.summary.dithered.as_khz() +
      (plan.periods - dithers) * plan.summary.steady.as_khz());
}

}  // namespace

Freq UfsPeriods::average(std::uint64_t dithers) const {
  EAR_EXPECT(periods > 0);
  return Freq::khz(static_cast<std::uint64_t>(
      period_sum(*this, dithers) / static_cast<double>(periods)));
}

UfsPeriods plan_ufs_periods(const NodeConfig& cfg, const HwUfsParams& params,
                            const UfsInputs& in, const UncoreRatioLimit& limit,
                            std::size_t periods) {
  UfsPeriods plan{.summary = summarise(cfg, params, in, limit),
                  .periods = periods};
  // Every period adds at most the steady selection, so below 2^53 each
  // partial sum of a period-by-period double accumulation is an exact
  // integer, and the count converted once by period_sum is that sum bit
  // for bit.
  EAR_EXPECT_MSG(static_cast<double>(periods) *
                         static_cast<double>(plan.summary.steady.as_khz()) <
                     0x1p53,
                 "periods x kHz must stay below 2^53 for an exact sum");
  if (plan.summary.can_dither) plan.threshold = dither_threshold(params);
  return plan;
}

double UfsLoopState::evaluate_periods(const NodeConfig& cfg,
                                      const HwUfsParams& params,
                                      const UfsInputs& in,
                                      const UncoreRatioLimit& limit,
                                      std::size_t periods) {
  const UfsPeriods plan = plan_ufs_periods(cfg, params, in, limit, periods);
  if (!plan.draws()) {
    finish(plan, nullptr);
    return period_sum(plan, 0);
  }
  DitherLane one = lane(plan, /*counted=*/true);
  dither_lanes({&one, 1});
  finish(plan, &one);
  return period_sum(plan, one.dithers);
}

void UfsLoopState::owe(const UfsPeriods& plan) {
  EAR_EXPECT(plan.draws() && !plan.counts());
  const OwedDraws debt = owe_draws(owed_, plan.periods);
  rng_.discard(debt.pay);
  owed_ = debt.owed;
}

void UfsLoopState::pay() {
  rng_.discard(owed_);
  owed_ = 0;
}

void UfsLoopState::finish(const UfsPeriods& plan, const DitherLane* lane) {
  if (plan.periods == 0) return;
  if (lane == nullptr) {
    select(plan.summary.steady);
    return;
  }
  rng_ = common::Rng::resume(lane->state);
  select(draw_dithers(lane->last, plan.threshold) ? plan.summary.dithered
                                                  : plan.summary.steady);
}

UfsStretchSummary UfsLoopState::integrate_stretch(
    const NodeConfig& cfg, const HwUfsParams& params, const UfsInputs& in,
    const UncoreRatioLimit& limit) {
  const UfsStretchSummary s = summarise(cfg, params, in, limit);
  hold(s);
  return s;
}

Freq hw_ufs_idle_freq(const NodeConfig& cfg, const UncoreRatioLimit& limit) {
  // hw_ufs_steady_target with active_cores == 0 returns range.min()
  // before touching any other input, and a floor target can never open
  // the dither gate (target > range.min() is false), so every period
  // selects window(range.min()) and the rng consumes nothing — the same
  // value evaluate_periods returns per period at idle, for any period
  // count, with the same final current().
  const UncoreRange& range = cfg.uncore;
  Freq f = range.min();
  const Freq lo = range.clamp(limit.min_freq);
  const Freq hi = range.clamp(limit.max_freq);
  if (f < lo) f = lo;
  if (f > hi) f = hi;
  return f;
}

HwUfsGovernor::HwUfsGovernor(const NodeConfig& cfg, HwUfsParams params,
                             std::uint64_t seed)
    : cfg_(cfg), params_(params), state_(cfg.uncore.max(), seed) {}

Freq HwUfsGovernor::evaluate(const UfsInputs& in,
                             const UncoreRatioLimit& limit) {
  evaluate_periods(in, limit, 1);
  return current();
}

}  // namespace ear::simhw
