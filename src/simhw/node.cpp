#include "simhw/node.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace ear::simhw {

using common::Freq;
using common::Joules;
using common::Secs;

namespace {
/// Clock droop of busy cores vs the requested P-state (package C-state
/// exits, thermal management); makes a 2.40 GHz request read as ~2.39.
constexpr double kCoreFreqDroop = 0.995;
/// Frequency idle cores report through APERF/MPERF-style averaging.
const Freq kIdleReportFreq = Freq::ghz(2.0);

PowerBreakdown scale(PowerBreakdown p, double factor) {
  p.base.value *= factor;
  p.cores.value *= factor;
  p.uncore.value *= factor;
  p.dram.value *= factor;
  p.gpu.value *= factor;
  return p;
}
}  // namespace

SimNode::SimNode(NodeConfig cfg, std::uint64_t seed, NoiseModel noise,
                 HwUfsParams ufs)
    : SimNode(std::make_shared<const NodeSpec>(NodeSpec{
                  .config = std::move(cfg), .noise = noise, .ufs = ufs}),
              seed) {}

SimNode::SimNode(std::shared_ptr<const NodeSpec> spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      rng_(seed),
      memo_(spec_->config),
      pstate_(spec_->config.pstates.nominal_pstate()),
      rapl_(spec_->config.sockets) {
  const NodeConfig& cfg = spec_->config;
  EAR_CHECK_MSG(cfg.sockets >= 1 && cfg.sockets <= kMaxSockets,
                "a node has 1 to kMaxSockets sockets");
  common::SplitMix64 seeder(seed ^ 0x5eed);
  for (Socket& s : sockets()) {
    // After boot the register holds the full supported window.
    s.msr.set_uncore_limit(
        {.max_freq = cfg.uncore.max(), .min_freq = cfg.uncore.min()});
    s.ufs = UfsLoopState(cfg.uncore.max(), seeder.next());
  }
}

void SimNode::set_cpu_pstate(Pstate p) {
  EAR_CHECK_MSG(p < config().pstates.size(), "pstate out of range");
  pstate_ = p;
}

MsrFile& SimNode::msr(std::size_t socket) {
  EAR_CHECK(socket < config().sockets);
  return sockets_[socket].msr;
}

const MsrFile& SimNode::msr(std::size_t socket) const {
  EAR_CHECK(socket < config().sockets);
  return sockets_[socket].msr;
}

void SimNode::set_uncore_limit_all(const UncoreRatioLimit& limit) {
  for (Socket& s : sockets()) s.msr.set_uncore_limit(limit);
}

UncoreRatioLimit SimNode::uncore_limit() const {
  return sockets_.front().msr.uncore_limit();
}

Freq SimNode::uncore_freq() const { return sockets_.front().ufs.current(); }

void SimNode::run_governors(std::span<SimNode> nodes,
                            std::span<const WorkDemand> demands,
                            std::span<Freq> f_imc) {
  EAR_CHECK(demands.size() == nodes.size() && f_imc.size() == nodes.size());
  // Passes of at most 16 nodes (the catalog's largest app; 32 lanes fill
  // whole vector groups) keep the scratch small and on the stack.
  constexpr std::size_t kPassNodes = 16;
  std::array<UfsPeriods, kPassNodes> plans{};
  std::array<DitherLane, kPassNodes * kMaxSockets> lanes{};
  for (std::size_t first = 0; first < nodes.size(); first += kPassNodes) {
    const std::size_t n = std::min(kPassNodes, nodes.size() - first);
    const std::span<SimNode> pass = nodes.subspan(first, n);
    std::size_t used = 0;
    for (std::size_t i = 0; i < n; ++i) {
      plans[i] = pass[i].plan_governor(demands[first + i]);
      used += pass[i].load_lanes(plans[i], std::span(lanes).subspan(used));
    }
    dither_lanes(std::span(lanes).first(used));
    used = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = plans[i].draws() ? pass[i].config().sockets : 0;
      f_imc[first + i] =
          pass[i].settle_lanes(plans[i], std::span(lanes).subspan(used, k));
      used += k;
    }
  }
}

std::size_t SimNode::load_lanes(const UfsPeriods& plan,
                                std::span<DitherLane> out) {
  if (!plan.draws()) return 0;
  // Each socket's governor has its own rng stream, so drawing all of one
  // governor's periods in its own lane (instead of interleaving sockets
  // within each period) leaves every stream — and thus every selection —
  // unchanged. The last socket drives the reported value; the others
  // track identically because EAR applies node-level workloads
  // symmetrically, so nobody reads their counts.
  const std::span<Socket> all = sockets();
  for (std::size_t s = 0; s < all.size(); ++s) {
    const bool counted = s + 1 == all.size();
    out[s] = all[s].ufs.lane(plan, counted);
  }
  return all.size();
}

Freq SimNode::settle_lanes(const UfsPeriods& plan,
                           std::span<const DitherLane> lanes) {
  const std::span<Socket> all = sockets();
  for (std::size_t s = 0; s < all.size(); ++s) {
    all[s].ufs.finish(plan, lanes.empty() ? nullptr : &lanes[s]);
  }
  return plan.average(lanes.empty() ? 0 : lanes.back().dithers);
}

UfsPeriods SimNode::plan_governor(const WorkDemand& demand) {
  const NodeConfig& cfg = spec_->config;
  const Freq f_cpu = cpu_freq();
  // Effective clock the governor keys on: VPI-weighted blend of the
  // requested frequency and the AVX512 licence cap.
  const Freq f_cap = cfg.pstates.avx512_effective(f_cpu);
  const Freq f_eff = Freq::khz(static_cast<std::uint64_t>(
      (1.0 - demand.vpi) * static_cast<double>(f_cpu.as_khz()) +
      demand.vpi * static_cast<double>(f_cap.as_khz())));

  UfsInputs inputs{
      .requested_core_freq = f_cpu,
      .effective_core_freq = f_eff,
      .bw_utilisation = last_bw_utilisation_,
      .relaxed_fraction = demand.relaxed_wait_fraction,
      .active_cores = demand.active_cores,
      .epb = sockets_.front().msr.read(kMsrEnergyPerfBias),
  };
  if (inputs.epb == 0) inputs.epb = 6;  // unprogrammed MSR -> default bias

  // Estimate the duration at the governor's current setting to know how
  // many control periods the iteration spans. The loop re-evaluates
  // every ~10 ms; its output is averaged across those periods (bounded
  // to keep long iterations cheap — beyond a few hundred periods the
  // average has converged anyway).
  const PerfResult estimate =
      memo_.evaluate(cfg, demand, f_cpu, sockets_.front().ufs.current());
  const auto periods = static_cast<std::size_t>(
      std::clamp(estimate.iter_time.value / spec_->ufs.evaluation_period_s,
                 1.0, 400.0));
  return plan_ufs_periods(cfg, spec_->ufs, inputs,
                          sockets_.front().msr.uncore_limit(), periods);
}

IterationOutcome SimNode::execute_iteration(const WorkDemand& demand) {
  // run_governors' steps for this node alone. Its own sockets never fill
  // a vector, so dither_lanes takes the scalar loop.
  const UfsPeriods plan = plan_governor(demand);
  std::array<DitherLane, kMaxSockets> lanes{};
  const std::size_t used = load_lanes(plan, lanes);
  const std::span<DitherLane> mine = std::span(lanes).first(used);
  dither_lanes(mine);
  return finish_iteration(demand, settle_lanes(plan, mine));
}

IterationOutcome SimNode::finish_iteration(const WorkDemand& demand,
                                           Freq f_imc) {
  const NodeConfig& cfg = spec_->config;
  const Freq f_cpu = cpu_freq();
  PerfResult perf = memo_.evaluate(cfg, demand, f_cpu, f_imc);

  // Run-to-run noise: jitter the wall time (OS, network, DRAM refresh...).
  const double tnoise =
      std::max(0.5, 1.0 + rng_.normal(0.0, spec_->noise.time_sigma));
  perf.iter_time.value *= tnoise;
  perf.gbps = perf.iter_time.value > 0.0
                  ? perf.bytes / perf.iter_time.value / 1e9
                  : 0.0;

  PowerBreakdown power = evaluate_power(cfg, demand, perf, f_cpu, f_imc);
  const double pnoise =
      std::max(0.5, 1.0 + rng_.normal(0.0, spec_->noise.power_sigma));
  power = scale(power, pnoise);

  const Secs dt = perf.iter_time;
  const Joules energy = power.total() * dt;

  // Energy counters.
  const Joules pkg_each =
      power.package() * dt;  // split evenly across sockets
  for (std::size_t s = 0; s < cfg.sockets; ++s) {
    rapl_.deposit_pkg(s, Joules{pkg_each.value /
                                static_cast<double>(cfg.sockets)});
  }
  rapl_.deposit_dram(power.dram * dt);
  inm_.deposit(energy, dt);

  // PMU counters (node aggregated).
  const double active = static_cast<double>(demand.active_cores);
  const double idle =
      static_cast<double>(cfg.total_cores() - demand.active_cores);
  counters_.instructions += perf.instructions_per_core * active;
  counters_.cycles += perf.cycles_per_core * active;
  counters_.avx512_ops +=
      demand.vpi * demand.instructions_per_core * active;
  counters_.cas_transactions += perf.bytes / 64.0;
  const double total = static_cast<double>(cfg.total_cores());
  // Reported core clock: AVX512 licence throttling shows up in the
  // APERF-style average (the paper's DGEMM reads 2.19 against a 2.40
  // request), and idle cores dilute it on mostly-idle nodes.
  const Freq f_licenced = cfg.pstates.avx512_effective(f_cpu);
  const double active_khz =
      (1.0 - demand.vpi) * static_cast<double>(f_cpu.as_khz()) +
      demand.vpi * static_cast<double>(f_licenced.as_khz());
  const double avg_core_khz =
      total > 0.0
          ? (active * active_khz * kCoreFreqDroop +
             idle * static_cast<double>(kIdleReportFreq.as_khz())) /
                total
          : 0.0;
  counters_.cpu_freq_cycles += avg_core_khz * dt.value;
  counters_.imc_freq_cycles +=
      static_cast<double>(f_imc.as_khz()) * dt.value;
  counters_.elapsed_seconds += dt.value;
  counters_.wait_seconds += demand.comm_seconds + demand.gpu_seconds;

  clock_ += dt;
  last_bw_utilisation_ = perf.bw_utilisation;

  return IterationOutcome{.perf = perf,
                          .power = power,
                          .uncore_freq = f_imc,
                          .energy = energy};
}

StretchSummary SimNode::execute_stretch(const WorkDemand& demand,
                                        std::size_t max_iters,
                                        double stop_before_s) {
  StretchSummary out;
  const NodeConfig& cfg = spec_->config;
  const HwUfsParams& params = spec_->ufs;

  // Hoisted invariants: the caller guarantees no control-plane mutation
  // mid-stretch, so everything the governor keys on except the bandwidth
  // feedback is fixed for the whole stretch.
  const Freq f_cpu = cpu_freq();
  const Freq f_cap = cfg.pstates.avx512_effective(f_cpu);
  const Freq f_eff = Freq::khz(static_cast<std::uint64_t>(
      (1.0 - demand.vpi) * static_cast<double>(f_cpu.as_khz()) +
      demand.vpi * static_cast<double>(f_cap.as_khz())));
  std::uint64_t epb = sockets_.front().msr.read(kMsrEnergyPerfBias);
  if (epb == 0) epb = 6;  // unprogrammed MSR -> default bias
  const UncoreRatioLimit limit = sockets_.front().msr.uncore_limit();

  const double active = static_cast<double>(demand.active_cores);
  const double idle_cores =
      static_cast<double>(cfg.total_cores() - demand.active_cores);
  const double total = static_cast<double>(cfg.total_cores());
  const double active_khz =
      (1.0 - demand.vpi) * static_cast<double>(f_cpu.as_khz()) +
      demand.vpi * static_cast<double>(f_cap.as_khz());
  const double avg_core_khz =
      total > 0.0
          ? (active * active_khz * kCoreFreqDroop +
             idle_cores * static_cast<double>(kIdleReportFreq.as_khz())) /
                total
          : 0.0;

  // The governor is reactive through last iteration's bandwidth
  // utilisation, which is itself a pure function of the chosen IMC
  // frequency — so the (f_imc, perf) pair reaches a fixed point after a
  // couple of warmup iterations and the cached state below stops being
  // recomputed. The recompute key is the bandwidth input alone.
  bool cached = false;
  double bw_in = 0.0;
  Freq f_imc{};
  PerfResult base{};

  while (out.iterations < max_iters && clock_.value < stop_before_s) {
    UfsInputs inputs{
        .requested_core_freq = f_cpu,
        .effective_core_freq = f_eff,
        .bw_utilisation = last_bw_utilisation_,
        .relaxed_fraction = demand.relaxed_wait_fraction,
        .active_cores = demand.active_cores,
        .epb = epb,
    };
    if (!cached || inputs.bw_utilisation != bw_in) {
      bw_in = inputs.bw_utilisation;
      // Every socket's governor integrates the stretch so current()
      // tracks exactly as the per-period loop would; the last socket
      // drives the value, like settle_lanes.
      UfsStretchSummary s{};
      for (Socket& k : sockets()) {
        s = k.ufs.integrate_stretch(cfg, params, inputs, limit);
      }
      // Dither-free this is bitwise settle_lanes' khz(sum/periods): the
      // sum is exactly steady*periods, so the quotient is exact and the
      // truncation lands on the same integer. Dithered, the Bernoulli
      // per-period average is replaced by its expectation.
      f_imc = s.expected_freq(params.dither_probability);
      base = memo_.evaluate(cfg, demand, f_cpu, f_imc);
      cached = true;
    }

    // Per-iteration tail, replicated from execute_iteration: same noise
    // draws in the same order, same accumulation arithmetic.
    PerfResult perf = base;
    const double tnoise =
        std::max(0.5, 1.0 + rng_.normal(0.0, spec_->noise.time_sigma));
    perf.iter_time.value *= tnoise;
    perf.gbps = perf.iter_time.value > 0.0
                    ? perf.bytes / perf.iter_time.value / 1e9
                    : 0.0;

    PowerBreakdown power = evaluate_power(cfg, demand, perf, f_cpu, f_imc);
    const double pnoise =
        std::max(0.5, 1.0 + rng_.normal(0.0, spec_->noise.power_sigma));
    power = scale(power, pnoise);

    const Secs dt = perf.iter_time;
    const Joules energy = power.total() * dt;
    const Joules pkg_each = power.package() * dt;
    for (std::size_t s = 0; s < cfg.sockets; ++s) {
      rapl_.deposit_pkg(s, Joules{pkg_each.value /
                                  static_cast<double>(cfg.sockets)});
    }
    rapl_.deposit_dram(power.dram * dt);
    inm_.deposit(energy, dt);

    counters_.instructions += perf.instructions_per_core * active;
    counters_.cycles += perf.cycles_per_core * active;
    counters_.avx512_ops +=
        demand.vpi * demand.instructions_per_core * active;
    counters_.cas_transactions += perf.bytes / 64.0;
    counters_.cpu_freq_cycles += avg_core_khz * dt.value;
    counters_.imc_freq_cycles +=
        static_cast<double>(f_imc.as_khz()) * dt.value;
    counters_.elapsed_seconds += dt.value;
    counters_.wait_seconds += demand.comm_seconds + demand.gpu_seconds;

    clock_ += dt;
    last_bw_utilisation_ = perf.bw_utilisation;
    ++out.iterations;
    out.uncore_freq = f_imc;
  }
  return out;
}

PowerBreakdown SimNode::idle_power(Freq f_imc, Secs dt) const {
  WorkDemand nothing{};
  nothing.active_cores = 0;
  PerfResult perf{};
  perf.iter_time = dt;
  return evaluate_power(spec_->config, nothing, perf, cpu_freq(), f_imc);
}

void SimNode::idle(Secs dt) {
  EAR_CHECK(dt.value >= 0.0);
  if (dt.value == 0.0) return;
  const NodeConfig& cfg = spec_->config;
  const Freq f_imc = settle_governors_idle();
  const PowerBreakdown power = idle_power(f_imc, dt);
  const Joules energy = power.total() * dt;
  for (std::size_t s = 0; s < cfg.sockets; ++s) {
    rapl_.deposit_pkg(
        s, Joules{(power.package() * dt).value /
                  static_cast<double>(cfg.sockets)});
  }
  rapl_.deposit_dram(power.dram * dt);
  inm_.deposit(energy, dt);
  counters_.elapsed_seconds += dt.value;
  counters_.cpu_freq_cycles +=
      static_cast<double>(kIdleReportFreq.as_khz()) * dt.value;
  counters_.imc_freq_cycles +=
      static_cast<double>(f_imc.as_khz()) * dt.value;
  clock_ += dt;
}

Freq SimNode::settle_governors_idle() {
  // With no active cores the loop settles on the window's floor for any
  // period count and draws nothing (hw_ufs_idle_freq). The last socket
  // drives the value, like settle_lanes.
  const UncoreRatioLimit limit = sockets_.front().msr.uncore_limit();
  Freq f_imc{};
  for (Socket& s : sockets()) f_imc = s.ufs.settle_idle(spec_->config, limit);
  return f_imc;
}

void SimNode::idle_until(Secs t) {
  const double gap = t.value - clock_.value;
  if (!(gap > 0.0)) return;
  idle(Secs{gap});
  clock_ = t;
}

void SimNode::settle_idle(Secs dt, std::uint64_t rounds) {
  EAR_CHECK(dt.value >= 0.0);
  if (dt.value == 0.0 || rounds == 0) return;
  const NodeConfig& cfg = spec_->config;
  const Freq f_imc = settle_governors_idle();
  // idle()'s deposits, quantised once and multiplied.
  const PowerBreakdown power = idle_power(f_imc, dt);
  const std::uint64_t pkg = to_energy_counts(Joules{
      (power.package() * dt).value / static_cast<double>(cfg.sockets)});
  for (std::size_t s = 0; s < cfg.sockets; ++s) {
    rapl_.add_pkg(s, scale_energy_counts(pkg, rounds));
  }
  rapl_.add_dram(scale_energy_counts(to_energy_counts(power.dram * dt),
                                     rounds));
  inm_.add(to_energy_counts(power.total() * dt), dt, rounds);
  const double cpu_cycles =
      static_cast<double>(kIdleReportFreq.as_khz()) * dt.value;
  const double imc_cycles = static_cast<double>(f_imc.as_khz()) * dt.value;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    counters_.elapsed_seconds += dt.value;
    counters_.cpu_freq_cycles += cpu_cycles;
    counters_.imc_freq_cycles += imc_cycles;
    clock_ += dt;
  }
}

std::uint64_t SimNode::idle_inm_counts(Secs dt) const {
  const Freq f_imc =
      hw_ufs_idle_freq(spec_->config, sockets_.front().msr.uncore_limit());
  return to_energy_counts(idle_power(f_imc, dt).total() * dt);
}

}  // namespace ear::simhw
