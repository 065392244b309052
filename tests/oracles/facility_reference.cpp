#include "oracles/facility_reference.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "eard/eard.hpp"
#include "sim/shard.hpp"
#include "simhw/cluster.hpp"
#include "simhw/energy_counts.hpp"

namespace ear::sim::oracle {

namespace {

/// Per-node execution/accounting state, one flat array over the
/// facility: the node's job, a copy of its demand, remaining work and
/// its last reading (integer milliwatts).
struct RefSlot {
  std::size_t job = kNoJob;
  simhw::WorkDemand demand{};
  std::size_t iters_left = 0;
  std::int64_t reading_mw = 0;
};

/// Per-running-job bookkeeping.
struct ActiveJob {
  std::size_t job = 0;
  std::size_t island = 0;
  std::vector<std::size_t> global_nodes;  // facility-wide indices
  std::vector<std::size_t> local_nodes;   // island-local (for release)
  simhw::EnergyTotal start_counts = 0;
};

}  // namespace

FacilityResult run_facility_reference(const FacilityConfig& cfg) {
  EAR_CHECK_MSG(!cfg.islands.empty(), "facility needs at least one island");
  check_facility_timing(cfg);
  const auto wall_t0 = std::chrono::steady_clock::now();

  // Hardware: one homogeneous cluster per island, nodes seeded from the
  // facility seed so every (island, node) stream is its own.
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

  std::vector<RefSlot> slots(total_nodes);
  std::vector<double> readings(total_nodes, 0.0);
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
                   .local_nodes = std::move(start.local_nodes)};
      for (std::size_t local : aj.local_nodes) {
        const std::size_t g = offsets[start.island] + local;
        aj.global_nodes.push_back(g);
        slots[g].job = start.job;
        slots[g].demand = demand;
        slots[g].iters_left = spec.iterations;
        aj.start_counts += nodes[g]->inm().counts();
      }
      FacilityJobOutcome& o = out.jobs[start.job];
      o.island = start.island;
      o.nodes = aj.global_nodes.size();
      o.start_s = now;
      active.push_back(std::move(aj));
    }

    // Advance every node to the round boundary, one iteration at a time,
    // and read its power: the INM delta over the clock delta in integer
    // milliwatts, holding the last reading while the clock stalls.
    std::int64_t total_mw = 0;
    for (std::size_t g = 0; g < total_nodes; ++g) {
      simhw::SimNode& node = *nodes[g];
      RefSlot& slot = slots[g];
      const std::uint64_t e0 = node.inm().counts();
      const double t0 = node.clock().value;
      if (slot.job != kNoJob) {
        while (slot.iters_left > 0 && node.clock().value < round_end) {
          (void)node.execute_iteration(slot.demand);
          --slot.iters_left;
        }
      }
      // Allocated-but-done nodes idle alongside the free ones until the
      // boundary (the allocation is held until the job ends).
      node.idle_until(common::Secs{round_end});
      const double dt = node.clock().value - t0;
      if (dt > 0.0) slot.reading_mw = reading_mw(node.inm().counts() - e0, dt);
      readings[g] = static_cast<double>(slot.reading_mw) / 1000.0;
      total_mw += slot.reading_mw;
    }
    const double total_w = static_cast<double>(total_mw) / 1000.0;
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

    // Fault tier: hide readings from the managers, one draw per target
    // per active round in (spec, island/node) order.
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
      simhw::EnergyTotal end_counts = 0;
      for (std::size_t g : aj.global_nodes) {
        end_counts += nodes[g]->inm().counts();
        slots[g].job = kNoJob;
      }
      FacilityJobOutcome& o = out.jobs[aj.job];
      o.end_s = round_end;
      o.energy_j =
          simhw::energy_counts_to_joules(end_counts - aj.start_counts).value;
      out.makespan_s = std::max(out.makespan_s, o.end_s);
      queue.release(aj.island, aj.local_nodes);
    }
    active = std::move(still_running);
    out.rounds = round + 1;

    if (active.empty() && queue.all_started()) break;
  }

  simhw::EnergyTotal facility_counts = 0;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    FacilityIslandOutcome io;
    io.node_type = cfg.islands[i].node_config.name;
    io.nodes = island_sizes[i];
    simhw::EnergyTotal island_counts = 0;
    for (std::size_t n = 0; n < island_sizes[i]; ++n) {
      island_counts += clusters[i]->node(n).inm().counts();
    }
    io.energy_j = simhw::energy_counts_to_joules(island_counts).value;
    facility_counts += island_counts;
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
    out.islands.push_back(std::move(io));
  }
  out.facility_energy_j =
      simhw::energy_counts_to_joules(facility_counts).value;
  if (federation) {
    out.redistributions = federation->redistributions();
    out.facility_blind_rounds = federation->facility_blind_rounds();
    out.faults.missed_readings = federation->total_missed_readings();
  }
  out.backfills = queue.backfills();
  out.peak_pending_jobs = queue.peak_pending();

  // Chaos invariants (see sim/facility.hpp). Violations are reported,
  // not thrown: a chaos campaign wants the full picture.
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

}  // namespace ear::sim::oracle
