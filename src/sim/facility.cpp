#include "sim/facility.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "sim/report.hpp"
#include "simhw/energy_counts.hpp"

namespace ear::sim {

using common::ConfigError;

double FacilityResult::mean_wait_s() const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& j : jobs) {
    if (j.nodes == 0) continue;  // never started
    acc += j.wait_s();
    ++n;
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

double FacilityResult::mean_turnaround_s() const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& j : jobs) {
    if (j.nodes == 0 || j.end_s <= 0.0) continue;  // unfinished
    acc += j.turnaround_s();
    ++n;
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

void check_facility_timing(const FacilityConfig& cfg) {
  const auto seconds = [](double s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", s);
    return std::string(buf);
  };
  // Scaling by a power of two is exact, so `ticks` is whole exactly when
  // round_s is a multiple of 2^-10 s; below 2^53 ticks every multiple up
  // to max_sim_s is exact too.
  const double ticks = cfg.round_s * 1024.0;
  if (!(cfg.round_s > 0.0 && ticks < 0x1p53 && std::floor(ticks) == ticks)) {
    throw ConfigError("control round " + seconds(cfg.round_s) +
                      " s is not a positive whole multiple of 1/1024 s: "
                      "round boundaries must be exact in floating point");
  }
  if (!(cfg.max_sim_s > cfg.round_s)) {
    throw ConfigError("max_sim_s " + seconds(cfg.max_sim_s) +
                      " s must exceed the control round");
  }
  if (!(cfg.max_sim_s <= simhw::kEnergyCounterSecondsAtKw)) {
    throw ConfigError("max_sim_s " + seconds(cfg.max_sim_s) +
                      " s is beyond the " +
                      seconds(simhw::kEnergyCounterSecondsAtKw) +
                      " s a node's energy counter holds at 1 kW");
  }
}

FacilityConfig make_facility_config(std::size_t nodes, std::size_t islands,
                                    std::size_t job_count,
                                    std::uint64_t seed) {
  EAR_CHECK_MSG(nodes > 0 && islands > 0 && job_count > 0,
                "facility synthesis needs nodes, islands and jobs");
  if (islands > nodes) {
    throw ConfigError("more islands than nodes");
  }

  FacilityConfig cfg;
  cfg.seed = seed;
  // Cycle the three calibrated node types across the islands; remainder
  // nodes land on the first islands so sizes differ by at most one.
  const simhw::NodeConfig types[] = {simhw::make_skylake_6148_node(),
                                     simhw::make_icelake_8358_node(),
                                     simhw::make_skylake_6142m_gpu_node()};
  const std::size_t base = nodes / islands;
  std::size_t extra = nodes % islands;
  std::size_t min_island = base;
  for (std::size_t i = 0; i < islands; ++i) {
    const std::size_t size = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    cfg.islands.push_back(FacilityIsland{.node_config = types[i % 3],
                                         .nodes = size});
    min_island = std::min(min_island, size);
  }

  // Catalog-flavoured job classes: compute-bound (dgemm-like),
  // bandwidth-bound (stream-like), balanced MPI (bqcd-like) and a
  // latency/spin-heavy class — the mix the paper's Table II spans.
  struct JobClass {
    const char* name;
    workload::SyntheticSpec spec;
  };
  const JobClass classes[] = {
      {"dgemm", {.iter_seconds = 0.25, .cpi_core = 0.4, .gbps = 18.0,
                 .stall_share = 0.05, .uncore_share = 0.4, .vpi = 0.35,
                 .power_activity = 1.1, .iterations = 24}},
      {"stream", {.iter_seconds = 0.2, .cpi_core = 1.1, .gbps = 120.0,
                  .stall_share = 0.55, .uncore_share = 0.7,
                  .iterations = 20}},
      {"bqcd", {.iter_seconds = 0.3, .cpi_core = 0.7, .gbps = 60.0,
                .stall_share = 0.3, .uncore_share = 0.55,
                .comm_fraction = 0.15, .iterations = 18}},
      {"latbench", {.iter_seconds = 0.15, .cpi_core = 1.6, .gbps = 8.0,
                    .stall_share = 0.4, .uncore_share = 0.8,
                    .comm_fraction = 0.3, .iterations = 30}},
  };

  // Mixed widths capped so every job fits the *smallest* island — the
  // queue only requires the widest, but keeping jobs placeable anywhere
  // exercises demand-driven redistribution rather than forced packing.
  std::vector<std::size_t> widths;
  for (std::size_t w : {std::size_t{1}, std::size_t{1}, std::size_t{2},
                        std::size_t{2}, std::size_t{4}, std::size_t{8},
                        std::size_t{16}}) {
    if (w <= min_island) widths.push_back(w);
  }

  // Jittered arrival stream spanning ~2 minutes of simulated time
  // regardless of the job count, so bigger facilities see a denser
  // stream (demand spikes) rather than a longer tail.
  const double mean_gap = 120.0 / static_cast<double>(job_count);
  common::Rng rng(common::mix_seed(seed, 0x10B5));
  double t = 0.0;
  for (std::size_t j = 0; j < job_count; ++j) {
    const JobClass& jc = classes[rng.below(4)];
    FacilityJob job;
    job.name = std::string(jc.name) + "-" + std::to_string(j);
    job.nodes = widths[rng.below(widths.size())];
    job.submit_s = t;
    job.work = jc.spec;
    job.work.iterations += rng.below(16);  // spread the drain
    t += rng.uniform(0.0, 2.0 * mean_gap);
    cfg.jobs.push_back(std::move(job));
  }

  // A deliberately tight default cap (~250 W/node vs ~300-450 W busy)
  // so enforcement is actually exercised; callers override the budget for
  // uncapped runs.
  cfg.budget = common::Power{static_cast<double>(nodes) * 250.0};
  return cfg;
}

void print_facility_report(const FacilityResult& r) {
  common::AsciiTable summary("facility");
  summary.columns({"metric", "value"});
  std::size_t nodes = 0;
  for (const auto& i : r.islands) nodes += i.nodes;
  summary.add_row({"nodes", std::to_string(nodes)});
  summary.add_row({"islands", std::to_string(r.islands.size())});
  summary.add_row({"jobs", std::to_string(r.jobs.size())});
  summary.add_row({"rounds", std::to_string(r.rounds)});
  summary.add_row({"makespan (s)", common::AsciiTable::num(r.makespan_s, 1)});
  summary.add_row(
      {"energy (MJ)", common::AsciiTable::num(r.facility_energy_j / 1e6, 3)});
  summary.add_row({"peak power (kW)",
                   common::AsciiTable::num(r.peak_power_w / 1e3, 2)});
  summary.add_row({"budget (kW)",
                   common::AsciiTable::num(r.budget_w / 1e3, 2)});
  // Ratio columns route through safe_ratio: an uncapped facility has no
  // defined peak/budget ratio and renders n/a, never inf.
  summary.add_row({"peak/budget",
                   common::AsciiTable::num(
                       safe_ratio(r.peak_power_w, r.budget_w), 2)});
  summary.add_row({"cap overrun rounds",
                   std::to_string(r.cap_overrun_rounds)});
  summary.add_row({"worst overrun (kW)",
                   common::AsciiTable::num(r.worst_overrun_w / 1e3, 2)});
  summary.add_row({"redistributions", std::to_string(r.redistributions)});
  summary.add_row({"facility blind rounds",
                   std::to_string(r.facility_blind_rounds)});
  summary.add_row({"mean wait (s)",
                   common::AsciiTable::num(r.mean_wait_s(), 1)});
  summary.add_row({"mean turnaround (s)",
                   common::AsciiTable::num(r.mean_turnaround_s(), 1)});
  summary.add_row({"backfills", std::to_string(r.backfills)});
  summary.add_row({"peak queued jobs",
                   std::to_string(r.peak_pending_jobs)});
  summary.add_row({"dropped readings",
                   std::to_string(r.faults.dropped_readings)});
  summary.add_row({"island dropouts",
                   std::to_string(r.faults.island_dropouts)});
  summary.add_row({"missed (substituted)",
                   std::to_string(r.faults.missed_readings)});
  summary.print();

  common::AsciiTable islands("islands");
  islands.columns({"island", "type", "nodes", "energy (MJ)", "budget (kW)",
                   "share", "limit", "throttles", "releases", "blind",
                   "missed", "resumed"});
  for (std::size_t i = 0; i < r.islands.size(); ++i) {
    const FacilityIslandOutcome& io = r.islands[i];
    islands.add_row(
        {std::to_string(i), io.node_type, std::to_string(io.nodes),
         common::AsciiTable::num(io.energy_j / 1e6, 3),
         common::AsciiTable::num(io.final_budget_w / 1e3, 2),
         common::AsciiTable::num(safe_ratio(io.final_budget_w, r.budget_w),
                                 2),
         std::string("p").append(std::to_string(io.final_limit)),
         std::to_string(io.throttles), std::to_string(io.releases),
         std::to_string(io.blind_rounds), std::to_string(io.missed_readings),
         std::to_string(io.resumed_nodes)});
  }
  islands.print();

  for (const std::string& v : r.violations) {
    EAR_LOG_WARN("facility", "invariant violated: %s", v.c_str());
  }
}

}  // namespace ear::sim
