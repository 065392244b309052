#include "sim/facility.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "eard/eard.hpp"
#include "sim/event_core.hpp"
#include "sim/report.hpp"
#include "sim/shard.hpp"
#include "simhw/cluster.hpp"

namespace ear::sim {

using common::ConfigError;

namespace {

/// Per-running-job bookkeeping.
struct ActiveJob {
  std::size_t job = 0;
  std::size_t island = 0;
  std::vector<std::size_t> global_nodes;  // facility-wide indices
  std::vector<std::size_t> local_nodes;   // island-local (for release)
  double start_inm_j = 0.0;
};

}  // namespace

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

SimCore parse_sim_core(const std::string& name) {
  if (name == "reference") return SimCore::kReference;
  if (name == "event") return SimCore::kEvent;
  throw ConfigError("unknown sim core '" + name +
                    "' (expected reference|event)");
}

const char* sim_core_name(SimCore core) {
  return core == SimCore::kEvent ? "event" : "reference";
}

FacilityResult run_facility(const FacilityConfig& cfg) {
  return cfg.core == SimCore::kEvent ? run_facility_event(cfg)
                                     : run_facility_reference(cfg);
}

FacilityResult run_facility_reference(const FacilityConfig& cfg) {
  EAR_CHECK_MSG(!cfg.islands.empty(), "facility needs at least one island");
  EAR_CHECK_MSG(cfg.round_s > 0.0, "control round must be positive");
  EAR_CHECK_MSG(cfg.max_sim_s > cfg.round_s, "max_sim_s too small");
  const auto wall_t0 = std::chrono::steady_clock::now();

  // Hardware: one homogeneous cluster per island, nodes seeded from the
  // facility seed so every (island, node) stream is independent of the
  // worker-thread count.
  std::vector<std::unique_ptr<simhw::Cluster>> clusters;
  std::vector<std::size_t> island_sizes;
  std::vector<std::size_t> offsets;  // island -> first global node index
  std::size_t total_nodes = 0;
  for (std::size_t i = 0; i < cfg.islands.size(); ++i) {
    EAR_CHECK_MSG(cfg.islands[i].nodes > 0, "island has no nodes");
    offsets.push_back(total_nodes);
    island_sizes.push_back(cfg.islands[i].nodes);
    total_nodes += cfg.islands[i].nodes;
    clusters.push_back(std::make_unique<simhw::Cluster>(
        cfg.islands[i].node_config, cfg.islands[i].nodes,
        common::mix_seed(cfg.seed, i), cfg.noise, cfg.ufs));
  }

  std::vector<eard::NodeDaemon> daemons;
  daemons.reserve(total_nodes);
  std::vector<simhw::SimNode*> nodes;
  nodes.reserve(total_nodes);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    for (std::size_t n = 0; n < island_sizes[i]; ++n) {
      nodes.push_back(&clusters[i]->node(n));
      daemons.emplace_back(clusters[i]->node(n));
    }
  }

  // Federation (only when capped). The caps act straight through the
  // node daemons — EARL sessions are not attached at facility scale;
  // per-node policy behaviour is the experiment tier's subject.
  std::unique_ptr<eargm::FederatedEargm> federation;
  if (cfg.budget.value > 0.0) {
    std::vector<std::vector<eard::NodeDaemon*>> groups;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      std::vector<eard::NodeDaemon*> group;
      for (std::size_t n = 0; n < island_sizes[i]; ++n) {
        group.push_back(&daemons[offsets[i] + n]);
      }
      groups.push_back(std::move(group));
    }
    federation = std::make_unique<eargm::FederatedEargm>(
        eargm::FederationConfig{.facility_budget = cfg.budget,
                                .island = cfg.island_eargm,
                                .floor_share = cfg.floor_share},
        std::move(groups));
  }

  const auto wall_t1 = std::chrono::steady_clock::now();

  JobQueue queue(cfg.jobs, island_sizes, cfg.backfill);

  FacilityResult out;
  out.budget_w = cfg.budget.value;
  out.jobs.resize(queue.jobs().size());
  for (std::size_t j = 0; j < queue.jobs().size(); ++j) {
    out.jobs[j].name = queue.jobs()[j].name;
    out.jobs[j].submit_s = queue.jobs()[j].submit_s;
  }

  // Per-node state: each parallel task owns exactly its slots[g]; the
  // power readings are merged from the slots *serially* (node order) so
  // total_w is the same float-addition order every run.
  EAR_SHARD_LOCAL std::vector<NodeSlot> slots(total_nodes);
  EAR_REDUCED_SERIAL std::vector<double> readings(total_nodes, 0.0);
  std::vector<ActiveJob> active;
  common::Rng fault_rng(common::mix_seed(cfg.seed, 0xFAC111));

  // When do the scheduled dropouts end? Persistent overruns only count
  // against the cap once the faults have cleared and the grace window
  // has passed (settle-or-degrade).
  double last_fault_end_s = 0.0;
  for (const auto& f : cfg.fault_plan.specs) {
    if (f.family == faults::FaultFamily::kNodeDropout ||
        f.family == faults::FaultFamily::kIslandDropout) {
      last_fault_end_s =
          std::max(last_fault_end_s, std::min(f.end_s, cfg.max_sim_s));
    }
  }

  bool nonfinite = false;
  bool wedged = false;
  std::size_t persistent_overruns = 0;
  std::size_t consecutive_over = 0;
  const double slack_w = cfg.budget.value * cfg.cap_slack_pct / 100.0;

  for (std::size_t round = 0;; ++round) {
    const double now = static_cast<double>(round) * cfg.round_s;
    const double round_end = now + cfg.round_s;
    if (round_end > cfg.max_sim_s) {
      wedged = !active.empty() || !queue.all_started();
      break;
    }

    // Admission: arrivals up to `now`, lowest free nodes, backfill.
    for (JobStart& start : queue.admit(now)) {
      const FacilityJob& job = queue.jobs()[start.job];
      const simhw::NodeConfig& node_cfg =
          cfg.islands[start.island].node_config;
      workload::SyntheticSpec spec = job.work;
      spec.active_cores =
          std::min(spec.active_cores, node_cfg.total_cores());
      const simhw::WorkDemand demand = workload::make_demand(node_cfg, spec);

      ActiveJob aj{.job = start.job,
                   .island = start.island,
                   .global_nodes = {},
                   .local_nodes = std::move(start.local_nodes),
                   .start_inm_j = 0.0};
      for (std::size_t local : aj.local_nodes) {
        const std::size_t g = offsets[start.island] + local;
        aj.global_nodes.push_back(g);
        slots[g].job = start.job;
        slots[g].demand = demand;
        slots[g].iters_left = spec.iterations;
        aj.start_inm_j += nodes[g]->inm().exact().value;
      }
      FacilityJobOutcome& o = out.jobs[start.job];
      o.island = start.island;
      o.nodes = aj.global_nodes.size();
      o.start_s = now;
      active.push_back(std::move(aj));
    }

    // Advance every node to the round boundary. Nodes are fully
    // independent here (own RNG, own counters), so the fan-out cannot
    // perturb results whatever the thread count.
    common::parallel_for(
        total_nodes,
        [&](std::size_t g) {
          simhw::SimNode& node = *nodes[g];
          NodeSlot& slot = slots[g];
          if (slot.job != kNoJob) {
            while (slot.iters_left > 0 && node.clock().value < round_end) {
              (void)node.execute_iteration(slot.demand);
              --slot.iters_left;
            }
          }
          // Allocated-but-done nodes idle alongside the free ones until
          // the boundary (the allocation is held until the job ends).
          const double gap = round_end - node.clock().value;
          if (gap > 0.0) node.idle(common::Secs{gap});
        },
        cfg.sim_jobs, /*grain=*/16);

    // Ground-truth readings from the INM energy deltas, node order.
    double total_w = 0.0;
    for (std::size_t g = 0; g < total_nodes; ++g) {
      NodeSlot& slot = slots[g];
      const double e = nodes[g]->inm().exact().value;
      const double t = nodes[g]->clock().value;
      const double de = e - slot.prev_inm_j;
      const double dt = t - slot.prev_clock_s;
      if (dt > 0.0) slot.last_reading = common::Power{de / dt};
      slot.prev_inm_j = e;
      slot.prev_clock_s = t;
      readings[g] = slot.last_reading.value;
      total_w += readings[g];
    }
    if (!std::isfinite(total_w)) nonfinite = true;
    out.peak_power_w = std::max(out.peak_power_w, total_w);

    // Cap accounting against the ground truth (what the room's meters
    // would see), not the post-dropout readings the managers see.
    if (cfg.budget.value > 0.0) {
      const double overrun = total_w - cfg.budget.value;
      if (overrun > 0.0) {
        ++out.cap_overrun_rounds;
        out.worst_overrun_w = std::max(out.worst_overrun_w, overrun);
      }
      bool degraded = true;
      if (federation) {
        for (std::size_t i = 0; i < federation->islands(); ++i) {
          if (federation->island(i).current_limit() <
              cfg.island_eargm.deepest_limit) {
            degraded = false;
            break;
          }
        }
      }
      if (now >= last_fault_end_s && overrun > slack_w && !degraded) {
        if (++consecutive_over > cfg.overrun_grace) ++persistent_overruns;
      } else {
        consecutive_over = 0;
      }
    }

    // Fault tier: hide readings from the managers. Serial draws in
    // (spec, island/node) order — one per target per active round —
    // keep the stream independent of the worker-thread count.
    for (const auto& f : cfg.fault_plan.specs) {
      if (!f.active_at(now)) continue;
      if (f.family == faults::FaultFamily::kNodeDropout) {
        for (std::size_t g = 0; g < total_nodes; ++g) {
          if (!f.applies_to_node(g)) continue;
          if (fault_rng.uniform() < f.probability) {
            if (std::isfinite(readings[g])) ++out.faults.dropped_readings;
            readings[g] = std::numeric_limits<double>::quiet_NaN();
          }
        }
      } else if (f.family == faults::FaultFamily::kIslandDropout) {
        for (std::size_t i = 0; i < clusters.size(); ++i) {
          if (!f.applies_to_island(i)) continue;
          if (fault_rng.uniform() < f.probability) {
            ++out.faults.island_dropouts;
            for (std::size_t n = 0; n < island_sizes[i]; ++n) {
              readings[offsets[i] + n] =
                  std::numeric_limits<double>::quiet_NaN();
            }
          }
        }
      }
    }

    if (federation) federation->update(readings);

    // Completion sweep in job-admission order; a finished job frees its
    // allocation for next round's admission.
    std::vector<ActiveJob> still_running;
    for (ActiveJob& aj : active) {
      bool done = true;
      for (std::size_t g : aj.global_nodes) {
        if (slots[g].iters_left > 0) {
          done = false;
          break;
        }
      }
      if (!done) {
        still_running.push_back(std::move(aj));
        continue;
      }
      double end_inm = 0.0;
      for (std::size_t g : aj.global_nodes) {
        end_inm += nodes[g]->inm().exact().value;
        slots[g].job = kNoJob;
      }
      FacilityJobOutcome& o = out.jobs[aj.job];
      o.end_s = round_end;
      o.energy_j = end_inm - aj.start_inm_j;
      if (!std::isfinite(o.energy_j)) nonfinite = true;
      out.makespan_s = std::max(out.makespan_s, o.end_s);
      queue.release(aj.island, aj.local_nodes);
    }
    active = std::move(still_running);
    out.rounds = round + 1;

    if (active.empty() && queue.all_started()) break;
  }

  for (std::size_t i = 0; i < clusters.size(); ++i) {
    FacilityIslandOutcome io;
    io.node_type = cfg.islands[i].node_config.name;
    io.nodes = island_sizes[i];
    for (std::size_t n = 0; n < island_sizes[i]; ++n) {
      io.energy_j += clusters[i]->node(n).inm().exact().value;
    }
    if (!std::isfinite(io.energy_j)) nonfinite = true;
    if (federation) {
      const eargm::EargmManager& m = federation->island(i);
      io.final_budget_w = federation->island_budget(i).value;
      io.final_limit = m.current_limit();
      io.throttles = m.throttle_events();
      io.releases = m.release_events();
      io.blind_rounds = m.blind_rounds();
      io.missed_readings = m.missed_readings();
      io.resumed_nodes = m.resumed_nodes();
    }
    out.facility_energy_j += io.energy_j;
    out.islands.push_back(std::move(io));
  }
  if (federation) {
    out.redistributions = federation->redistributions();
    out.facility_blind_rounds = federation->facility_blind_rounds();
    out.faults.missed_readings = federation->total_missed_readings();
  }
  out.backfills = queue.backfills();
  out.peak_pending_jobs = queue.peak_pending();

  // Chaos invariants (see header). Violations are reported, not thrown:
  // a chaos campaign wants the full picture, not the first failure.
  if (nonfinite) {
    out.violations.push_back("non-finite energy/power in ground truth");
  }
  if (wedged) {
    out.violations.push_back("facility wedged: max_sim_s reached with " +
                             std::to_string(active.size()) +
                             " jobs running");
  }
  if (persistent_overruns > 0) {
    out.violations.push_back(
        "cap overrun beyond " +
        common::AsciiTable::num(cfg.cap_slack_pct, 0) +
        "% slack persisted past the grace window in " +
        std::to_string(persistent_overruns) + " rounds");
  }
  out.walls.build_s =
      std::chrono::duration<double>(wall_t1 - wall_t0).count();
  out.walls.core_s = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - wall_t1).count();
  return out;
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
         "p" + std::to_string(io.final_limit),
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
