#include "simhw/node.hpp"

#include <algorithm>
#include <optional>
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

/// The relative jitter of one noise draw: max(0.5, 1 + normal(0, sigma))
/// from normal()'s value `z` (Rng::normal(mean, sd) is mean + sd * z).
double jitter(double z, double sigma) {
  return std::max(0.5, 1.0 + (0.0 + sigma * z));
}

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

Freq SimNode::uncore_freq(std::size_t socket) const {
  EAR_CHECK(socket < config().sockets);
  return sockets_[socket].ufs.current();
}

void SimNode::run_governors(std::span<SimNode> nodes,
                            std::span<const WorkDemand> demands,
                            std::span<Freq> f_imc,
                            std::span<NoisePair> noise) {
  EAR_CHECK(demands.size() == nodes.size() && f_imc.size() == nodes.size() &&
            noise.size() == nodes.size());
  // Passes of at most 16 nodes (the catalog's largest app; 32 lanes fill
  // whole vector groups) keep the scratch small and on the stack. Every
  // slot a pass reads it writes first, so nothing is initialised up
  // front: a disengaged optional and a lane cost no stores.
  constexpr std::size_t kPassNodes = 16;
  std::array<std::optional<UfsPeriods>, kPassNodes> plans;
  std::array<DitherLane, kPassNodes * kMaxSockets> lanes;
  std::array<NoiseLane, kPassNodes> rows;
  for (std::size_t first = 0; first < nodes.size(); first += kPassNodes) {
    const std::size_t n = std::min(kPassNodes, nodes.size() - first);
    const std::span<SimNode> pass = nodes.subspan(first, n);
    std::size_t used = 0;
    for (std::size_t i = 0; i < n; ++i) {
      plans[i] = pass[i].plan_governor(demands[first + i]);
      used += pass[i].load_lanes(*plans[i], std::span(lanes).subspan(used));
      rows[i].state = pass[i].rng_.state();
      rows[i].pairs = 1;
    }
    dither_lanes(std::span(lanes).first(used));
    // Each node's noise pair, drawn ahead: the stream resumes after it,
    // and nothing draws from it before the node's finish_iteration.
    noise_lanes(std::span(rows).first(n));
    used = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const UfsPeriods& plan = *plans[i];
      const std::size_t k = plan.draws() ? pass[i].config().sockets : 0;
      f_imc[first + i] =
          pass[i].settle_lanes(plan, std::span(lanes).subspan(used, k));
      used += k;
      noise[first + i] = rows[i].normals[0];
      pass[i].rng_ = common::Rng::resume(rows[i].after[0]);
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
  // symmetrically, so nobody reads their counts. Nor the last socket's,
  // when the window holds both selections on one value.
  const std::span<Socket> all = sockets();
  for (std::size_t s = 0; s < all.size(); ++s) {
    const bool counted = s + 1 == all.size() && plan.counts();
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
  return plan.average(plan.counts() ? lanes.back().dithers : 0);
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
  // many control periods the iteration spans (the time alone: nothing
  // else of the model is read). The loop re-evaluates every ~10 ms; its
  // output is averaged across those periods (bounded to keep long
  // iterations cheap — beyond a few hundred periods the average has
  // converged anyway).
  const Secs estimate =
      iteration_time(cfg, demand, f_cpu, sockets_.front().ufs.current())
          .iter_time;
  const auto periods = static_cast<std::size_t>(std::clamp(
      estimate.value / spec_->ufs.evaluation_period_s, 1.0, 400.0));
  return plan_ufs_periods(cfg, spec_->ufs, inputs,
                          sockets_.front().msr.uncore_limit(), periods);
}

IterationOutcome SimNode::execute_iteration(const WorkDemand& demand) {
  // run_governors' steps for this node alone. Its own sockets never fill
  // a vector, so dither_lanes takes the scalar loop, and its noise pair
  // comes straight from the stream.
  const UfsPeriods plan = plan_governor(demand);
  std::array<DitherLane, kMaxSockets> lanes;
  const std::size_t used = load_lanes(plan, lanes);
  const std::span<DitherLane> mine = std::span(lanes).first(used);
  dither_lanes(mine);
  const Freq f_imc = settle_lanes(plan, mine);
  NoisePair noise;
  noise[0] = rng_.normal();
  noise[1] = rng_.normal();
  return finish_iteration(demand, f_imc, noise);
}

IterationOutcome SimNode::finish_iteration(const WorkDemand& demand,
                                           Freq f_imc,
                                           const NoisePair& noise) {
  const NodeConfig& cfg = spec_->config;
  const Freq f_cpu = cpu_freq();
  PerfResult perf = evaluate_iteration(cfg, demand, f_cpu, f_imc);

  // Run-to-run noise: jitter the wall time (OS, network, DRAM refresh...).
  perf.iter_time.value *= jitter(noise[0], spec_->noise.time_sigma);
  perf.gbps = perf.iter_time.value > 0.0
                  ? perf.bytes / perf.iter_time.value / 1e9
                  : 0.0;

  const PowerBreakdown power =
      scale(evaluate_power(cfg, demand, perf, f_cpu, f_imc),
            jitter(noise[1], spec_->noise.power_sigma));

  const Secs dt = perf.iter_time;
  const Joules energy = power.total() * dt;
  deposit(power, dt);

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

/// What holds for all of a stretch, and the operating point its
/// bandwidth input gives.
struct SimNode::Stretch {
  const WorkDemand* demand;
  UfsInputs inputs;  // bw_utilisation: the input `base` is for
  UncoreRatioLimit limit;
  double active;        // active cores
  double avg_core_khz;  // reported core clock
  UfsStretchSummary ufs;  // the governors' summary at `inputs`
  Freq f_imc;
  PerfResult base;       // noise-free, at f_imc
  PowerBreakdown power;  // evaluate_power at `base`
};

SimNode::Stretch SimNode::prepare_stretch(const WorkDemand& demand) {
  const NodeConfig& cfg = spec_->config;
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

  const double active = static_cast<double>(demand.active_cores);
  const double idle_cores =
      static_cast<double>(cfg.total_cores() - demand.active_cores);
  const double total = static_cast<double>(cfg.total_cores());
  const double active_khz =
      (1.0 - demand.vpi) * static_cast<double>(f_cpu.as_khz()) +
      demand.vpi * static_cast<double>(f_cap.as_khz());
  Stretch s{
      .demand = &demand,
      .inputs = {.requested_core_freq = f_cpu,
                 .effective_core_freq = f_eff,
                 .bw_utilisation = last_bw_utilisation_,
                 .relaxed_fraction = demand.relaxed_wait_fraction,
                 .active_cores = demand.active_cores,
                 .epb = epb},
      .limit = sockets_.front().msr.uncore_limit(),
      .active = active,
      .avg_core_khz =
          total > 0.0
              ? (active * active_khz * kCoreFreqDroop +
                 idle_cores * static_cast<double>(kIdleReportFreq.as_khz())) /
                    total
              : 0.0};
  refresh_stretch(s);
  return s;
}

void SimNode::refresh_stretch(Stretch& s) {
  const NodeConfig& cfg = spec_->config;
  const HwUfsParams& params = spec_->ufs;
  // Every socket's governor integrates the stretch so current() tracks
  // exactly as the per-period loop would; the last socket drives the
  // value, like settle_lanes.
  for (Socket& k : sockets()) {
    s.ufs = k.ufs.integrate_stretch(cfg, params, s.inputs, s.limit);
  }
  // Dither-free this is bitwise settle_lanes' khz(sum/periods): the sum
  // is exactly steady*periods, so the quotient is exact and the
  // truncation lands on the same integer. Dithered, the Bernoulli
  // per-period average is replaced by its expectation.
  s.f_imc = s.ufs.expected_freq(params.dither_probability);
  const Freq f_cpu = s.inputs.requested_core_freq;
  s.base = evaluate_iteration(cfg, *s.demand, f_cpu, s.f_imc);
  s.power = evaluate_power(cfg, *s.demand, s.base, f_cpu, s.f_imc);
}

bool SimNode::shares_stretch(const SimNode& other, const Stretch& prev,
                             const WorkDemand& demand) const {
  // The bandwidth key only saves work: run_stretch re-keys on the
  // bandwidth input before every iteration, the first included.
  const MsrFile& mine = sockets_.front().msr;
  const MsrFile& theirs = other.sockets_.front().msr;
  return &demand == prev.demand &&
         last_bw_utilisation_ == prev.inputs.bw_utilisation &&
         spec_ == other.spec_ && pstate_ == other.pstate_ &&
         mine.read(kMsrEnergyPerfBias) == theirs.read(kMsrEnergyPerfBias) &&
         mine.read(kMsrUncoreRatioLimit) ==
             theirs.read(kMsrUncoreRatioLimit);
}

SimNode::Stretch SimNode::adopt_stretch(const Stretch& s) {
  // refresh_stretch's only move on the node: every socket integrated the
  // same inputs under the same window, so each holds the steady value.
  for (Socket& k : sockets()) k.ufs.hold(s.ufs);
  return s;
}

StretchSummary SimNode::run_stretch(Stretch& s, std::size_t max_iters,
                                    double stop_before_s,
                                    const NoiseLane* row) {
  StretchSummary out;
  const NodeConfig& cfg = spec_->config;
  const NoiseModel& noise = spec_->noise;
  const WorkDemand& demand = *s.demand;
  const std::size_t pairs = row != nullptr ? row->pairs : 0;
  // Only the DRAM term of a CPU node's power moves with the noisy time;
  // a GPU node's busy fraction moves too, so it re-evaluates it all.
  const bool gpu = cfg.power.gpu_count > 0;

  while (out.iterations < max_iters && clock_.value < stop_before_s) {
    // The governor is reactive through last iteration's bandwidth
    // utilisation, which is itself a pure function of the chosen IMC
    // frequency — so the (f_imc, perf) pair reaches a fixed point after a
    // couple of warmup iterations and the state stops being recomputed.
    if (last_bw_utilisation_ != s.inputs.bw_utilisation) {
      s.inputs.bw_utilisation = last_bw_utilisation_;
      refresh_stretch(s);
    }

    // The iteration's two noise draws, time then power (execute_
    // iteration's order): from the row while it lasts, then from the
    // stream, resumed after the row's last pair.
    const std::size_t i = out.iterations;
    double z_time = 0.0;
    double z_power = 0.0;
    if (i < pairs) {
      z_time = row->normals[i][0];
      z_power = row->normals[i][1];
    } else {
      if (i == pairs && i > 0) rng_ = common::Rng::resume(row->after[i - 1]);
      z_time = rng_.normal();
      z_power = rng_.normal();
    }

    // Per-iteration tail, replicated from finish_iteration: same
    // accumulation arithmetic.
    const Secs dt{s.base.iter_time.value * jitter(z_time, noise.time_sigma)};
    const double gbps =
        dt.value > 0.0 ? s.base.bytes / dt.value / 1e9 : 0.0;
    PowerBreakdown power = s.power;
    if (gpu) {
      PerfResult perf = s.base;
      perf.iter_time = dt;
      perf.gbps = gbps;
      power = evaluate_power(cfg, demand, perf, s.inputs.requested_core_freq,
                             s.f_imc);
    } else {
      power.dram = dram_power(cfg.power, gbps);
    }
    power = scale(power, jitter(z_power, noise.power_sigma));
    deposit(power, dt);

    counters_.instructions += s.base.instructions_per_core * s.active;
    counters_.cycles += s.base.cycles_per_core * s.active;
    counters_.avx512_ops +=
        demand.vpi * demand.instructions_per_core * s.active;
    counters_.cas_transactions += s.base.bytes / 64.0;
    counters_.cpu_freq_cycles += s.avg_core_khz * dt.value;
    counters_.imc_freq_cycles +=
        static_cast<double>(s.f_imc.as_khz()) * dt.value;
    counters_.elapsed_seconds += dt.value;
    counters_.wait_seconds += demand.comm_seconds + demand.gpu_seconds;

    clock_ += dt;
    last_bw_utilisation_ = s.base.bw_utilisation;
    ++out.iterations;
    out.uncore_freq = s.f_imc;
  }
  if (out.iterations > 0 && out.iterations <= pairs) {
    rng_ = common::Rng::resume(row->after[out.iterations - 1]);
  }
  return out;
}

StretchSummary SimNode::execute_stretch(const WorkDemand& demand,
                                        std::size_t max_iters,
                                        double stop_before_s) {
  if (max_iters == 0 || !(clock_.value < stop_before_s)) return {};
  Stretch s = prepare_stretch(demand);
  return run_stretch(s, max_iters, stop_before_s, nullptr);
}

StretchSummary SimNode::execute_stretch(const WorkDemand& demand,
                                        std::size_t max_iters,
                                        double stop_before_s,
                                        const NoiseLane& row) {
  EAR_CHECK_MSG(row.state == rng_.state() && row.pairs <= kNoisePairs,
                "a noise row must start at the node's stream");
  if (max_iters == 0 || !(clock_.value < stop_before_s)) return {};
  Stretch s = prepare_stretch(demand);
  return run_stretch(s, max_iters, stop_before_s, &row);
}

void SimNode::execute_stretches(std::span<StretchRun> runs) {
  // Passes of at most 16 stretches (two AVX-512 noise groups) keep the
  // scratch on the stack; like run_governors', it is written before it
  // is read, so nothing is initialised up front.
  constexpr std::size_t kPass = 16;
  std::array<std::optional<Stretch>, kPass> stretches;
  std::array<NoiseLane, kPass> rows;
  for (std::size_t first = 0; first < runs.size(); first += kPass) {
    const std::size_t n = std::min(kPass, runs.size() - first);
    // The pass's last prepared stretch and its node, which the pass has
    // not run yet: the next run may share it.
    const Stretch* prev = nullptr;
    const SimNode* prev_node = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
      StretchRun& run = runs[first + i];
      SimNode& node = *run.node;
      rows[i].state = node.rng_.state();
      rows[i].pairs = 0;
      stretches[i].reset();
      const double left = run.stop_before_s - node.clock_.value;
      if (run.max_iters == 0 || !(left > 0.0)) continue;
      const Stretch& s = stretches[i].emplace(
          prev != nullptr && node.shares_stretch(*prev_node, *prev, *run.demand)
              ? node.adopt_stretch(*prev)
              : node.prepare_stretch(*run.demand));
      prev = &s;
      prev_node = &node;
      // The iterations that fit before the stop at the first one's
      // noise-free time, rounded up (the last one overshoots). A wrong
      // guess costs time only: a longer stretch draws on from the
      // stream, a shorter one leaves pairs unused.
      const double fit = left / s.base.iter_time.value;
      std::size_t guess = kNoisePairs;
      if (fit < static_cast<double>(kNoisePairs)) {
        guess = static_cast<std::size_t>(fit);
        if (static_cast<double>(guess) < fit) ++guess;
      }
      rows[i].pairs = std::min(guess, run.max_iters);
    }
    noise_lanes(std::span(rows).first(n));
    for (std::size_t i = 0; i < n; ++i) {
      StretchRun& run = runs[first + i];
      run.out = stretches[i]
                    ? run.node->run_stretch(*stretches[i], run.max_iters,
                                            run.stop_before_s, &rows[i])
                    : StretchSummary{};
    }
  }
}

void SimNode::deposit(const PowerBreakdown& power, Secs dt) {
  // The package energy splits evenly across the sockets: one share,
  // quantised once, into every socket's counter.
  const std::uint64_t pkg_share = to_energy_counts(Joules{
      (power.package() * dt).value / static_cast<double>(config().sockets)});
  for (std::size_t s = 0; s < config().sockets; ++s) {
    rapl_.add_pkg(s, pkg_share);
  }
  rapl_.deposit_dram(power.dram * dt);
  inm_.deposit(power.total() * dt, dt);
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
  const Freq f_imc = settle_governors_idle();
  deposit(idle_power(f_imc, dt), dt);
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
