// The HW UFS governor must reproduce the hardware behaviours the paper
// documents (Tables I, IV, VI): conservative max for fast/bandwidth-heavy
// sockets, licence tracking for AVX512, deep drops for near-idle and
// wide-MPI-wait sockets, and strict obedience to the MSR 0x620 window.
#include "simhw/hw_ufs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "simhw/dither_lanes.hpp"

namespace ear::simhw {
namespace {

using common::Freq;

NodeConfig cfg() { return make_skylake_6148_node(); }

UfsInputs base_inputs() {
  return UfsInputs{.requested_core_freq = Freq::ghz(2.4),
                   .effective_core_freq = Freq::ghz(2.4),
                   .bw_utilisation = 0.05,
                   .relaxed_fraction = 0.0,
                   .active_cores = 40,
                   .epb = 6};
}

Freq target(const UfsInputs& in) {
  const NodeConfig c = cfg();
  return hw_ufs_steady_target(c, HwUfsParams{}, in);
}

TEST(HwUfs, IdleSocketDropsToMin) {
  UfsInputs in = base_inputs();
  in.active_cores = 0;
  EXPECT_EQ(target(in), Freq::ghz(1.2));
}

TEST(HwUfs, NominalRequestPinsMax) {
  // BT-MZ / BQCD at nominal: IMC stays at the limit regardless of the
  // modest memory traffic (Table I: the paper's motivating observation).
  EXPECT_EQ(target(base_inputs()), Freq::ghz(2.4));
}

TEST(HwUfs, HighBandwidthPinsMaxEvenAtLowCoreClock) {
  // HPCG under ME: CPU at ~1.8 GHz but IMC stays at 2.39 (Table VI).
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(1.8);
  in.effective_core_freq = Freq::ghz(1.8);
  in.bw_utilisation = 0.77;
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, Avx512ThrottleTracksDown) {
  // DGEMM: 100% AVX512 -> effective 2.2 GHz -> uncore ~2.0 (Table IV),
  // even though its bandwidth utilisation is substantial.
  UfsInputs in = base_inputs();
  in.effective_core_freq = Freq::ghz(2.2);
  in.bw_utilisation = 0.47;
  EXPECT_EQ(target(in), Freq::ghz(2.0));
}

TEST(HwUfs, ModerateVpiBlendStaysMaxAtNominal) {
  // GROMACS(I) at nominal: VPI-weighted effective clock ~2.33 >= 2.3.
  UfsInputs in = base_inputs();
  in.effective_core_freq = Freq::ghz(2.33);
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, ScalarReducedRequestKeepsMax) {
  // The paper's Table VI: POP/DUMSES/AFiD run the CPU at 2.1-2.2 GHz yet
  // the hardware keeps the uncore pinned near its maximum.
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.1);
  in.effective_core_freq = Freq::ghz(2.1);
  in.bw_utilisation = 0.1;
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, AvxReducedRequestTracks) {
  // GROMACS(I) under ME (request 2.3, VPI blend ~2.265): licence
  // throttling is active, so the uncore follows to ~2.0 (Table VI: 2.04).
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.3);
  in.effective_core_freq = Freq::ghz(2.265);
  in.relaxed_fraction = 0.075;
  const Freq t = target(in);
  EXPECT_GE(t, Freq::ghz(1.9));
  EXPECT_LE(t, Freq::ghz(2.1));
}

TEST(HwUfs, WideMpiWaitDropsDeep) {
  // GROMACS(II) under ME: 16 nodes, heavy MPI waits -> IMC ~1.45.
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.3);
  in.effective_core_freq = Freq::ghz(2.27);
  in.relaxed_fraction = 0.175;
  in.bw_utilisation = 0.058;
  const Freq t = target(in);
  EXPECT_GE(t, Freq::ghz(1.3));
  EXPECT_LE(t, Freq::ghz(1.6));
}

TEST(HwUfs, DenseSpinWaitDoesNotDrop) {
  // Dense busy-wait (no C-state entry) on a wide socket: stays max.
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.2);
  in.effective_core_freq = Freq::ghz(2.2);
  in.relaxed_fraction = 0.0;
  in.bw_utilisation = 0.05;
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, NearIdleBusyWaitDropsDeep) {
  // CUDA busy-wait with a lowered request (BT.CUDA under ME): ~1.5-1.6.
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.2);
  in.effective_core_freq = Freq::ghz(2.2);
  in.active_cores = 1;
  in.bw_utilisation = 0.001;
  const Freq t = target(in);
  EXPECT_GE(t, Freq::ghz(1.4));
  EXPECT_LE(t, Freq::ghz(1.7));
}

TEST(HwUfs, CudaAtNominalKeepsMax) {
  // LU.CUDA with an untouched 2.6 GHz request: IMC stays 2.39 (Table IV).
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.6);
  in.effective_core_freq = Freq::ghz(2.6);
  in.active_cores = 1;
  in.bw_utilisation = 0.001;
  EXPECT_EQ(target(in), Freq::ghz(2.4));
}

TEST(HwUfs, PowersaveEpbShavesOneBin) {
  // EPB matters in the tracking regime (AVX-throttled here).
  UfsInputs in = base_inputs();
  in.requested_core_freq = Freq::ghz(2.4);
  in.effective_core_freq = Freq::ghz(2.2);
  in.bw_utilisation = 0.1;
  const Freq normal = target(in);
  in.epb = 10;
  EXPECT_EQ(target(in), Freq::khz(normal.as_khz() - 100'000));
}

TEST(HwUfsGovernor, RespectsMsrWindow) {
  const NodeConfig c = cfg();
  HwUfsGovernor gov(c, HwUfsParams{}, 1);
  // Pin the window to 1.7 GHz: whatever the target, output is 1.7.
  const UncoreRatioLimit pinned{.max_freq = Freq::ghz(1.7),
                                .min_freq = Freq::ghz(1.7)};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(gov.evaluate(base_inputs(), pinned), Freq::ghz(1.7));
  }
}

TEST(HwUfsGovernor, WindowMaxCapsTarget) {
  const NodeConfig c = cfg();
  HwUfsGovernor gov(c, HwUfsParams{}, 1);
  const UncoreRatioLimit capped{.max_freq = Freq::ghz(2.0),
                                .min_freq = Freq::ghz(1.2)};
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(gov.evaluate(base_inputs(), capped), Freq::ghz(2.0));
  }
}

TEST(HwUfsGovernor, DitherAveragesJustBelowTarget) {
  // The paper measures 2.39 GHz averages against a 2.40 limit.
  const NodeConfig c = cfg();
  HwUfsGovernor gov(c, HwUfsParams{}, 99);
  const UncoreRatioLimit open{.max_freq = Freq::ghz(2.4),
                              .min_freq = Freq::ghz(1.2)};
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    sum += gov.evaluate(base_inputs(), open).as_ghz();
  }
  const double avg = sum / n;
  EXPECT_GT(avg, 2.37);
  EXPECT_LT(avg, 2.40);
}

TEST(HwUfsGovernor, CurrentTracksLastEvaluation) {
  const NodeConfig c = cfg();
  HwUfsParams p;
  p.dither_probability = 0.0;
  HwUfsGovernor gov(c, p, 5);
  const UncoreRatioLimit open{.max_freq = Freq::ghz(2.4),
                              .min_freq = Freq::ghz(1.2)};
  gov.evaluate(base_inputs(), open);
  EXPECT_EQ(gov.current(), Freq::ghz(2.4));
}

// --- The dither loop against its per-period spec -------------------------
//
// evaluate_periods counts dithered periods with an integer compare on the
// raw draw and converts the sum once; an uncounted lane (a socket whose
// count nobody reads) only steps its stream up to the last draw. The
// oracle below is the spec both must match, written out period by
// period: one uniform() draw per period while the gate is open,
// `uniform() < p ? dithered : steady`, summed in a double.

struct SpecLoop {
  const NodeConfig& cfg;
  HwUfsParams params;
  common::Rng rng;
  Freq current;

  SpecLoop(const NodeConfig& c, HwUfsParams p, std::uint64_t seed)
      : cfg(c), params(p), rng(seed), current(c.uncore.max()) {}

  double run(const UfsInputs& in, const UncoreRatioLimit& limit,
             std::size_t periods) {
    const UncoreRange& range = cfg.uncore;
    const Freq target = hw_ufs_steady_target(cfg, params, in);
    const Freq lo = range.clamp(limit.min_freq);
    const Freq hi = range.clamp(limit.max_freq);
    const auto window = [&](Freq f) {
      if (f < lo) f = lo;
      if (f > hi) f = hi;
      return f;
    };
    const bool gate =
        target > range.min() && params.dither_probability > 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < periods; ++i) {
      current = gate && rng.uniform() < params.dither_probability
                    ? window(range.step_down(target))
                    : window(target);
      sum += static_cast<double>(current.as_khz());
    }
    return sum;
  }
};

/// A socket's loop run through the lane path uncounted, as a node runs
/// every socket but its last.
void run_uncounted(UfsLoopState& state, const NodeConfig& node,
                   const HwUfsParams& params, const UfsInputs& in,
                   const UncoreRatioLimit& limit, std::size_t periods) {
  const UfsPeriods plan = plan_ufs_periods(node, params, in, limit, periods);
  if (!plan.draws()) {
    state.finish(plan, nullptr);
    return;
  }
  DitherLane lane = state.lane(plan, /*counted=*/false);
  dither_lanes({&lane, 1});
  state.finish(plan, &lane);
}

struct DitherCase {
  double p;
  std::uint64_t seed;
  UfsInputs in;
  UncoreRatioLimit limit;
  std::size_t periods;
};

std::string describe(const DitherCase& c) {
  std::ostringstream os;
  os.precision(17);
  os << "p=" << c.p << " seed=" << c.seed
     << " active=" << c.in.active_cores
     << " eff=" << c.in.effective_core_freq.as_khz()
     << " window=[" << c.limit.min_freq.as_khz() << ","
     << c.limit.max_freq.as_khz() << "] periods=" << c.periods;
  return os.str();
}

const UncoreRatioLimit kOpen{.max_freq = Freq::ghz(2.4),
                             .min_freq = Freq::ghz(1.2)};
const UncoreRatioLimit kPinned{.max_freq = Freq::ghz(1.7),
                               .min_freq = Freq::ghz(1.7)};
const UncoreRatioLimit kCapping{.max_freq = Freq::ghz(2.0),
                                .min_freq = Freq::ghz(1.2)};

UfsInputs tracking_inputs() {  // AVX-throttled: target 2.0 GHz
  UfsInputs in = base_inputs();
  in.effective_core_freq = Freq::ghz(2.2);
  in.bw_utilisation = 0.47;
  return in;
}

UfsInputs idle_inputs() {  // rule 1: floor target, gate closed
  UfsInputs in = base_inputs();
  in.active_cores = 0;
  return in;
}

/// Run one case through evaluate_periods, the uncounted lane path and
/// the spec, then a follow-up call on an open gate that exposes any
/// difference in stream position. Empty on agreement, else what
/// differed.
std::string mismatch(const DitherCase& c) {
  const NodeConfig node = cfg();
  HwUfsParams params;
  params.dither_probability = c.p;
  HwUfsGovernor counted(node, params, c.seed);
  UfsLoopState stepped(node.uncore.max(), c.seed);
  SpecLoop spec(node, params, c.seed);

  const double got = counted.evaluate_periods(c.in, c.limit, c.periods);
  run_uncounted(stepped, node, params, c.in, c.limit, c.periods);
  const double want = spec.run(c.in, c.limit, c.periods);
  if (std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want)) {
    return "sum " + std::to_string(got) + " != spec " + std::to_string(want);
  }
  if (counted.current() != spec.current) return "current() != spec";
  if (stepped.current() != spec.current) return "uncounted current() != spec";

  constexpr std::size_t kFollowUp = 97;
  const double want_next = spec.run(base_inputs(), kOpen, kFollowUp);
  const double got_next = counted.evaluate_periods(base_inputs(), kOpen,
                                                   kFollowUp);
  const double stepped_next = stepped.evaluate_periods(
      node, params, base_inputs(), kOpen, kFollowUp);
  if (std::bit_cast<std::uint64_t>(got_next) !=
      std::bit_cast<std::uint64_t>(want_next)) {
    return "stream position differs from spec";
  }
  if (std::bit_cast<std::uint64_t>(stepped_next) !=
      std::bit_cast<std::uint64_t>(want_next)) {
    return "uncounted stream position differs from spec";
  }
  return {};
}

void expect_all_agree(const std::vector<DitherCase>& cases) {
  std::size_t failures = 0;
  std::string first;
  for (const DitherCase& c : cases) {
    const std::string why = mismatch(c);
    if (why.empty()) continue;
    if (failures++ == 0) first = describe(c) + ": " + why;
  }
  EXPECT_EQ(failures, 0u) << "of " << cases.size() << " cases; first: "
                          << first;
}

TEST(HwUfsDitherLoop, MatchesPerPeriodSpec) {
  std::vector<std::size_t> counts = {0, 1, 2, 399, 400, 401};
  common::Rng pick(2024);
  for (int i = 0; i < 6; ++i) counts.push_back(3 + pick.below(3000));
  const double ps[] = {-0.1, 0.0, 0.12, 0.5, 1.0, 1.5,
                       std::numeric_limits<double>::quiet_NaN()};
  std::vector<DitherCase> cases;
  for (const std::uint64_t seed : {1ULL, 99ULL, 0xC0FFEEULL}) {
    for (const double p : ps) {
      for (const UfsInputs& in :
           {base_inputs(), tracking_inputs(), idle_inputs()}) {
        for (const UncoreRatioLimit& limit : {kOpen, kPinned, kCapping}) {
          for (const std::size_t n : counts) {
            cases.push_back({p, seed, in, limit, n});
          }
        }
      }
    }
  }
  expect_all_agree(cases);
}

TEST(HwUfsDitherLoop, ThresholdIsExactAtTheDraws) {
  // p equal to a draw the stream produces must not dither on that draw
  // (strict <); p one ulp above a draw below 0.5 must (ceil, not floor:
  // there p * 2^53 is not an integer).
  std::vector<DitherCase> cases;
  for (const std::uint64_t seed : {1ULL, 99ULL, 0xC0FFEEULL}) {
    common::Rng peek(seed);
    bool found_low = false;
    for (std::size_t j = 0; j < 64; ++j) {
      const double u = peek.uniform();
      for (const UfsInputs& in : {base_inputs(), tracking_inputs()}) {
        for (const std::size_t n : {j + 1, j + 2, std::size_t{400}}) {
          cases.push_back({u, seed, in, kOpen, n});
          if (u < 0.5) {
            cases.push_back({std::nextafter(u, 1.0), seed, in, kOpen, n});
            found_low = true;
          }
        }
      }
    }
    ASSERT_TRUE(found_low);
  }
  expect_all_agree(cases);
}

TEST(HwUfsDitherLoop, PeriodCountMustKeepTheSumExact) {
  const NodeConfig node = cfg();
  HwUfsParams params;
  params.dither_probability = 0.0;  // gate closed: no loop to wait for
  HwUfsGovernor gov(node, params, 1);
  const std::uint64_t khz = Freq::ghz(2.4).as_khz();
  const std::size_t most = ((std::uint64_t{1} << 53) - 1) / khz;
  EXPECT_EQ(gov.evaluate_periods(base_inputs(), kOpen, most),
            static_cast<double>(most * khz));
  EXPECT_THROW((void)gov.evaluate_periods(base_inputs(), kOpen, most + 1),
               common::ContractViolation);
}

// --- The lane kernel against the per-period oracle -----------------------
//
// Every dither_lanes variant the host runs must leave each lane exactly as
// one draw per period from its own stream does: the count of draws with
// uniform() < p, the last raw draw and the final stream state; an
// uncounted lane's count is left as it was. Calls mix lane counts that
// leave partial vector groups, period counts from 0 to 401 (so one group
// has an unmasked head and a masked tail), mostly counted, mostly
// uncounted (step-only groups of unequal and zero period counts) and
// all-uncounted lanes, and probabilities including p exactly at a draw
// the stream produces and one ulp above it.

struct LaneCase {
  std::uint64_t seed;
  double p;
  std::uint64_t periods;
  bool counted;
};

struct LaneOracle {
  std::uint64_t dithers = 0;
  std::uint64_t last = 0;
  common::Rng::State state{};
};

LaneOracle per_period(const LaneCase& c) {
  common::Rng rng(c.seed);
  LaneOracle out;
  for (std::uint64_t i = 0; i < c.periods; ++i) {
    common::Rng peek = rng;
    out.last = peek.next_u64();
    if (rng.uniform() < c.p) ++out.dithers;
  }
  out.state = rng.state();
  return out;
}

/// The lane plan_ufs_periods sets up for `c` on an open-gate input: the
/// threshold is 0 for a closed gate (p <= 0 or NaN), which matches
/// `uniform() < p` failing on every draw.
DitherLane lane_for(const LaneCase& c) {
  const NodeConfig node = cfg();
  HwUfsParams params;
  params.dither_probability = c.p;
  const UfsPeriods plan =
      plan_ufs_periods(node, params, base_inputs(), kOpen, c.periods);
  return DitherLane{.state = common::Rng(c.seed).state(),
                    .periods = c.periods,
                    .threshold = plan.threshold,
                    .counted = c.counted,
                    .dithers = 7,
                    .last = 0xdeadbeef};
}

/// Empty on agreement, else the first lane that differs and how.
std::string run_lanes(const std::vector<LaneCase>& cases,
                      LaneVariant variant) {
  std::vector<DitherLane> lanes;
  for (const LaneCase& c : cases) lanes.push_back(lane_for(c));
  dither_lanes(lanes, variant);
  for (std::size_t j = 0; j < cases.size(); ++j) {
    const LaneCase& c = cases[j];
    const DitherLane& got = lanes[j];
    const LaneOracle want = per_period(c);
    std::ostringstream why;
    why.precision(17);
    why << "lane " << j << " of " << cases.size() << " (seed " << c.seed
        << ", p " << c.p << ", periods " << c.periods << "): ";
    if (got.state != want.state) return why.str() + "final state";
    if (c.periods == 0) {
      if (got.dithers != 7 || got.last != 0xdeadbeef) {
        return why.str() + "a lane without periods was written";
      }
      continue;
    }
    if (got.last != want.last) return why.str() + "last draw";
    if (!c.counted && got.dithers != 7) {
      return why.str() + "an uncounted lane's count was written";
    }
    if (c.counted && got.dithers != want.dithers) {
      return why.str() + "count " + std::to_string(got.dithers) +
             " != " + std::to_string(want.dithers);
    }
  }
  return {};
}

TEST(DitherLanes, EveryVariantMatchesThePerPeriodOracle) {
  const double ps[] = {-0.1, 0.0, std::numeric_limits<double>::quiet_NaN(),
                       1e-9, 0.12, 0.5, 1.0, 1.5};
  std::vector<std::string> ran;
  for (const LaneVariant variant : supported_dither_variants()) {
    common::Rng pick(2025);
    std::size_t failures = 0;
    std::string first;
    for (std::size_t n = 1; n <= 33; ++n) {
      // Rounds 0-3 count three lanes in four, 4-5 one in four, 6 none.
      for (int round = 0; round < 7; ++round) {
        std::vector<LaneCase> cases;
        for (std::size_t j = 0; j < n; ++j) {
          // Counts 0-401, with the edges of the masked tail (0, 1, the
          // 400-period cap and one past it) forced in.
          const std::uint64_t periods =
              (j + static_cast<std::size_t>(round)) % 11 == 0
                  ? std::array<std::uint64_t, 4>{0, 1, 400, 401}[j % 4]
                  : pick.below(402);
          const std::uint64_t draw = pick.below(4);
          cases.push_back({.seed = 1 + pick.below(1'000'000),
                           .p = ps[pick.below(std::size(ps))],
                           .periods = periods,
                           .counted = round < 4   ? draw != 0
                                      : round < 6 ? draw == 0
                                                  : false});
        }
        const std::string why = run_lanes(cases, variant);
        if (!why.empty() && failures++ == 0) {
          first = "n=" + std::to_string(n) + " " + why;
        }
      }
    }
    EXPECT_EQ(failures, 0u) << lane_variant_name(variant) << ": " << first;
    ran.emplace_back(lane_variant_name(variant));
  }
  std::string names;
  for (const std::string& r : ran) names += (names.empty() ? "" : ",") + r;
  std::printf("dither_lanes variants run: %s\n", names.c_str());
#if defined(__x86_64__) && defined(__GNUC__)
  // The host's own answer, independent of the library's list: a variant
  // the CPU supports must have run.
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_NE(std::find(ran.begin(), ran.end(), "avx2"), ran.end());
  }
  if (__builtin_cpu_supports("avx512f")) {
    EXPECT_NE(std::find(ran.begin(), ran.end(), "avx512"), ran.end());
  }
#endif
}

TEST(DitherLanes, ThresholdIsExactAtTheDrawsInEveryVariant) {
  // p equal to a draw a lane's stream produces must not dither on that
  // draw, p one ulp above it must: the boundary of the integer compare,
  // in every lane position of a vector group.
  for (const LaneVariant variant : supported_dither_variants()) {
    std::vector<LaneCase> cases;
    for (const std::uint64_t seed : {1ULL, 99ULL, 0xC0FFEEULL, 4242ULL}) {
      common::Rng peek(seed);
      for (std::uint64_t j = 0; j < 8; ++j) {
        const double u = peek.uniform();
        cases.push_back({seed, u, j + 1, true});
        cases.push_back({seed, std::nextafter(u, 1.0), j + 1, true});
        cases.push_back({seed, u, 200 + j, true});
      }
    }
    EXPECT_EQ(run_lanes(cases, variant), "") << lane_variant_name(variant);
  }
}

TEST(DitherLanes, DispatchFollowsLaneCountAndCpu) {
  const std::vector<LaneVariant> have = supported_dither_variants();
  const auto has = [&](LaneVariant v) {
    return std::find(have.begin(), have.end(), v) != have.end();
  };
  ASSERT_TRUE(has(LaneVariant::kScalar));
  for (std::size_t n = 0; n <= 64; ++n) {
    const LaneVariant v = dither_variant(n);
    EXPECT_TRUE(has(v)) << n;
    if (n >= 8 && has(LaneVariant::kAvx512)) {
      EXPECT_EQ(v, LaneVariant::kAvx512) << n;
    } else if (n >= 4 && has(LaneVariant::kAvx2)) {
      EXPECT_EQ(v, LaneVariant::kAvx2) << n;
    } else {
      EXPECT_EQ(v, LaneVariant::kScalar) << n;
    }
  }
}

// --- The noise kernel against Rng::normal() ------------------------------
//
// Every noise_lanes variant the host runs must leave each lane exactly as
// two Rng::normal() calls per pair from its own stream do: both values
// bit for bit and the stream after every pair. Calls cover 0-33 lanes
// (partial vector groups padded with idle lanes) and rows of unequal
// depth in one group (0 to kNoisePairs pairs, so the shallow lanes of a
// group skip their stores), and a lane's entries from `pairs` on and its
// `state` must be left as they were.

/// Empty on agreement, else the first lane that differs and how.
std::string run_noise(const std::vector<std::uint64_t>& seeds,
                      const std::vector<std::size_t>& pairs,
                      LaneVariant variant) {
  constexpr double kUnset = -123.0;
  const common::Rng::State unset_state{1, 2, 3, 4};
  std::vector<NoiseLane> lanes(seeds.size());
  for (std::size_t j = 0; j < lanes.size(); ++j) {
    lanes[j].state = common::Rng(seeds[j]).state();
    lanes[j].pairs = pairs[j];
    for (std::size_t k = 0; k < kNoisePairs; ++k) {
      lanes[j].normals[k] = {kUnset, kUnset};
      lanes[j].after[k] = unset_state;
    }
  }
  noise_lanes(lanes, variant);
  for (std::size_t j = 0; j < lanes.size(); ++j) {
    const NoiseLane& got = lanes[j];
    const std::string why = "lane " + std::to_string(j) + " of " +
                            std::to_string(lanes.size()) + " (seed " +
                            std::to_string(seeds[j]) + ", " +
                            std::to_string(pairs[j]) + " pairs): ";
    common::Rng rng(seeds[j]);
    if (got.state != rng.state()) return why + "state was written";
    for (std::size_t k = 0; k < kNoisePairs; ++k) {
      if (k >= pairs[j]) {
        if (got.normals[k][0] != kUnset || got.normals[k][1] != kUnset ||
            got.after[k] != unset_state) {
          return why + "pair " + std::to_string(k) + " past the row written";
        }
        continue;
      }
      for (int h = 0; h < 2; ++h) {
        const double want = rng.normal();
        if (std::bit_cast<std::uint64_t>(got.normals[k][h]) !=
            std::bit_cast<std::uint64_t>(want)) {
          return why + "pair " + std::to_string(k) + " value " +
                 std::to_string(h);
        }
      }
      if (got.after[k] != rng.state()) {
        return why + "state after pair " + std::to_string(k);
      }
    }
  }
  return {};
}

TEST(NoiseLanes, EveryVariantMatchesNormalPairs) {
  std::vector<std::string> ran;
  for (const LaneVariant variant : supported_noise_variants()) {
    common::Rng pick(2026);
    std::size_t failures = 0;
    std::string first;
    for (std::size_t n = 0; n <= 33; ++n) {
      for (int round = 0; round < 4; ++round) {
        std::vector<std::uint64_t> seeds;
        std::vector<std::size_t> pairs;
        for (std::size_t j = 0; j < n; ++j) {
          seeds.push_back(1 + pick.below(1'000'000));
          // Depths 0-kNoisePairs, with both ends forced in.
          pairs.push_back((j + static_cast<std::size_t>(round)) % 5 == 0
                              ? (j % 2 == 0 ? 0 : kNoisePairs)
                              : pick.below(kNoisePairs + 1));
        }
        const std::string why = run_noise(seeds, pairs, variant);
        if (!why.empty() && failures++ == 0) {
          first = "n=" + std::to_string(n) + " " + why;
        }
      }
    }
    // Every lane of a group at full depth, and one deep lane among
    // shallow ones.
    for (const std::size_t deep : {std::size_t{0}, std::size_t{5}}) {
      std::vector<std::uint64_t> seeds;
      std::vector<std::size_t> pairs;
      for (std::size_t j = 0; j < 16; ++j) {
        seeds.push_back(99 + j);
        pairs.push_back(deep == 0 || j == deep ? kNoisePairs : 1);
      }
      const std::string why = run_noise(seeds, pairs, variant);
      if (!why.empty() && failures++ == 0) first = why;
    }
    EXPECT_EQ(failures, 0u) << lane_variant_name(variant) << ": " << first;
    ran.emplace_back(lane_variant_name(variant));
  }
  std::string names;
  for (const std::string& r : ran) names += (names.empty() ? "" : ",") + r;
  std::printf("noise_lanes variants run: %s\n", names.c_str());
#if defined(__x86_64__) && defined(__GNUC__)
  // The host's own answer, independent of the library's list.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    EXPECT_NE(std::find(ran.begin(), ran.end(), "avx512"), ran.end());
  }
#endif
}

TEST(NoiseLanes, DispatchFollowsLaneCountAndCpu) {
  const std::vector<LaneVariant> have = supported_noise_variants();
  ASSERT_EQ(have.front(), LaneVariant::kScalar);
  const bool avx512 = std::find(have.begin(), have.end(),
                                LaneVariant::kAvx512) != have.end();
  EXPECT_EQ(std::find(have.begin(), have.end(), LaneVariant::kAvx2),
            have.end());
  for (std::size_t n = 0; n <= 64; ++n) {
    EXPECT_EQ(noise_variant(n), n >= 3 && avx512 ? LaneVariant::kAvx512
                                                 : LaneVariant::kScalar)
        << n;
  }
}

TEST(NoiseLanes, RowDeeperThanItHoldsIsRefused) {
  for (const LaneVariant variant : supported_noise_variants()) {
    std::vector<NoiseLane> lanes(8);
    for (NoiseLane& lane : lanes) {
      lane.state = common::Rng(5).state();
      lane.pairs = 1;
    }
    lanes[3].pairs = kNoisePairs + 1;
    EXPECT_THROW(noise_lanes(lanes, variant), common::InvariantError)
        << lane_variant_name(variant);
  }
}

}  // namespace
}  // namespace ear::simhw
