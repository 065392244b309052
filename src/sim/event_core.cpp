#include "sim/facility.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "eard/eard.hpp"
#include "faults/schedule.hpp"
#include "sim/shard.hpp"
#include "simhw/cluster.hpp"

namespace ear::sim {

namespace {

/// Longest stretch of control rounds one barrier may cover. Bounds the
/// per-shard snapshot buffers (window * nodes doubles) and how far a
/// shard can run ahead of a completion that would end the simulation.
constexpr std::size_t kMaxWindow = 64;

/// Nodes per unit of parallel work. Whole islands are too coarse:
/// first-fit admission packs the busy nodes into the low islands, so one
/// shard could hold up a whole window. At 10k nodes, 64 to 512 measured
/// within ~8% of each other and 32 fell behind; 128 still splits an
/// island of a few hundred nodes over several workers.
constexpr std::size_t kChunkNodes = 128;

/// One unit of parallel work: local nodes [lo, hi) of one shard.
struct NodeChunk {
  std::size_t shard = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Per-running-job bookkeeping (admission order). The job's nodes point
/// their slots at `demand`.
struct RunningJob {
  std::size_t job = 0;
  std::size_t island = 0;
  std::vector<std::size_t> local_nodes;
  simhw::WorkDemand demand{};
  double start_inm_j = 0.0;
  bool live = false;
};

/// Most bytes one facility node can cost: its hardware, daemon and slot,
/// its done round and reading, and a worst-case window of snapshot
/// columns (INM energy, clock and reading per round).
constexpr std::uint64_t kBytesPerNode =
    sizeof(simhw::SimNode) + sizeof(NodeSlot) + sizeof(eard::NodeDaemon) +
    sizeof(std::size_t) + sizeof(double) + 3 * kMaxWindow * sizeof(double);

/// Memory a run may use: physical memory, lowered by any finite
/// address-space or data-segment soft limit.
std::uint64_t memory_limit_bytes() {
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_bytes = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page_bytes > 0) {
    limit = static_cast<std::uint64_t>(pages) *
            static_cast<std::uint64_t>(page_bytes);
  }
  for (const int resource : {RLIMIT_AS, RLIMIT_DATA}) {
    rlimit rl{};
    if (getrlimit(resource, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY) {
      limit = std::min<std::uint64_t>(limit, rl.rlim_cur);
    }
  }
  return limit;
}

/// Refuse a facility whose nodes cannot fit in memory with a clear
/// error, before anything is allocated per node, rather than leave it
/// to the OOM killer. Overflow-safe: the node count saturates and the
/// estimate is compared by division.
void check_footprint(const FacilityConfig& cfg) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t nodes = 0;
  for (const FacilityIsland& island : cfg.islands) {
    nodes = island.nodes > kMax - nodes ? kMax : nodes + island.nodes;
  }
  const std::uint64_t limit = memory_limit_bytes();
  if (nodes <= limit / kBytesPerNode) return;
  constexpr double kGb = 1e9;
  const double need_gb =
      static_cast<double>(nodes) * static_cast<double>(kBytesPerNode) / kGb;
  throw common::ConfigError(
      "facility of " + std::to_string(nodes) + " nodes needs an estimated " +
      common::AsciiTable::num(need_gb, 1) + " GB (" +
      std::to_string(kBytesPerNode) + " B per node), above the " +
      common::AsciiTable::num(static_cast<double>(limit) / kGb, 1) +
      " GB memory limit");
}

/// First round whose start time r * round_s is at or after `s`.
std::size_t round_at_or_after(double s, double round_s) {
  if (s <= 0.0) return 0;
  return static_cast<std::size_t>(std::ceil(s / round_s));
}

}  // namespace

FacilityResult run_facility(const FacilityConfig& cfg) {
  EAR_CHECK_MSG(!cfg.islands.empty(), "facility needs at least one island");
  EAR_CHECK_MSG(cfg.round_s > 0.0, "control round must be positive");
  EAR_CHECK_MSG(cfg.max_sim_s > cfg.round_s, "max_sim_s too small");
  check_footprint(cfg);
  const auto wall_t0 = std::chrono::steady_clock::now();

  // Hardware: one shard per island. Node streams are rooted at
  // mix_seed(seed, island) exactly as the reference loop seeds its
  // clusters, so shard advancement is independent of worker count.
  std::vector<std::unique_ptr<simhw::Cluster>> clusters(cfg.islands.size());
  std::vector<Shard> shards(cfg.islands.size());
  std::size_t total_nodes = 0;
  for (std::size_t i = 0; i < cfg.islands.size(); ++i) {
    EAR_CHECK_MSG(cfg.islands[i].nodes > 0, "island has no nodes");
    Shard& sh = shards[i];
    sh.index = i;
    sh.seed = common::mix_seed(cfg.seed, i);
    sh.offset = total_nodes;
    sh.size = cfg.islands[i].nodes;
    sh.round_s = cfg.round_s;
    total_nodes += sh.size;
    sh.slots.resize(sh.size);
    sh.done_round.assign(sh.size, kNoRound);
  }
  // Parallel work items: fixed-size node chunks of every shard in
  // shard-index order. One crew serves the whole run — the island build
  // below and every window's advance.
  std::vector<NodeChunk> chunks;
  for (const Shard& sh : shards) {
    for (std::size_t lo = 0; lo < sh.size; lo += kChunkNodes) {
      chunks.push_back({sh.index, lo, std::min(lo + kChunkNodes, sh.size)});
    }
  }
  common::Crew crew(
      std::min(common::resolve_jobs(cfg.sim_jobs), chunks.size()));

  // Island hardware builds concurrently: every stream in a cluster is
  // rooted at the island seed, so the result is bitwise-independent of
  // the worker count (and of whether the build ran concurrently at all).
  crew.run(shards.size(), [&](std::size_t i) {
    clusters[i] = std::make_unique<simhw::Cluster>(
        cfg.islands[i].node_config, cfg.islands[i].nodes, shards[i].seed,
        cfg.noise, cfg.ufs);
    shards[i].cluster = clusters[i].get();
  });

  std::vector<eard::NodeDaemon> daemons;
  daemons.reserve(total_nodes);
  for (Shard& sh : shards) {
    for (std::size_t n = 0; n < sh.size; ++n) {
      daemons.emplace_back(sh.cluster->node(n));
    }
  }

  std::unique_ptr<eargm::FederatedEargm> federation;
  if (cfg.budget.value > 0.0) {
    std::vector<std::vector<eard::NodeDaemon*>> groups;
    for (const Shard& sh : shards) {
      std::vector<eard::NodeDaemon*> group;
      for (std::size_t n = 0; n < sh.size; ++n) {
        group.push_back(&daemons[sh.offset + n]);
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

  std::vector<std::size_t> island_sizes;
  for (const Shard& sh : shards) island_sizes.push_back(sh.size);
  JobQueue queue(cfg.jobs, island_sizes, cfg.backfill);

  FacilityResult out;
  out.budget_w = cfg.budget.value;
  out.jobs.resize(queue.jobs().size());
  for (std::size_t j = 0; j < queue.jobs().size(); ++j) {
    out.jobs[j].name = queue.jobs()[j].name;
    out.jobs[j].submit_s = queue.jobs()[j].submit_s;
  }

  // Global control-plane events: anything that can change facility state
  // at a round boundary ends the current window there.
  EventQueue global_events;
  {
    std::vector<std::size_t> arrival_rounds;
    for (const FacilityJob& job : queue.jobs()) {
      arrival_rounds.push_back(
          round_at_or_after(job.submit_s, cfg.round_s));
    }
    std::sort(arrival_rounds.begin(), arrival_rounds.end());
    arrival_rounds.erase(
        std::unique(arrival_rounds.begin(), arrival_rounds.end()),
        arrival_rounds.end());
    for (std::size_t r : arrival_rounds) {
      global_events.push({r, EventKind::kJobArrival, 0});
    }
  }
  faults::FaultSchedule fault_sched(cfg.fault_plan, cfg.round_s,
                                    cfg.max_sim_s);
  for (std::size_t b : fault_sched.boundaries()) {
    global_events.push({b, EventKind::kFaultBoundary, 0});
  }
  if (federation) {
    // The federation schedules its own cadence: every completed round
    // posts the next cap-re-split barrier. (With a live federation every
    // window is one round anyway — caps mutate node daemons, which is
    // control-plane state the shards would otherwise run ahead of.)
    federation->set_round_hook(
        [&global_events](std::size_t rounds_completed, common::Power) {
          global_events.push(
              {rounds_completed, EventKind::kEargmRound, 0});
        });
  }

  // Serial cross-shard state: the readings buffer and the fault stream
  // are reduced/drawn in shard-index order at barrier merges only.
  std::vector<double> readings(total_nodes, 0.0);
  common::Rng fault_rng(common::mix_seed(cfg.seed, 0xFAC111));

  // The window each chunk advances through is published to the crew by
  // the epoch increment inside Crew::run (release/acquire pairing).
  const common::Crew::Body advance = [&shards, &chunks](std::size_t c) {
    const NodeChunk& ch = chunks[c];
    shards[ch.shard].advance_nodes(ch.lo, ch.hi);
  };

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

  // Admission order. A deque, because slots point at the demands inside
  // and push_back never moves existing elements.
  std::deque<RunningJob> running;
  std::vector<std::size_t> job_running(queue.jobs().size(), kNoJob);
  std::size_t live_jobs = 0;
  bool finished = false;

  std::size_t round = 0;
  std::size_t last_window = 1;
  while (true) {
    const double now = static_cast<double>(round) * cfg.round_s;
    const double round_end = now + cfg.round_s;
    if (round_end > cfg.max_sim_s) {
      wedged = live_jobs > 0 || !queue.all_started();
      break;
    }

    // Retire control events due at this barrier; what remains bounds the
    // next window.
    while (!global_events.empty() &&
           global_events.next_round() <= round) {
      (void)global_events.pop();
    }

    // Admission: arrivals up to `now`, lowest free nodes, backfill —
    // byte-for-byte the reference loop's admission, against shard slots.
    for (JobStart& start : queue.admit(now)) {
      const FacilityJob& job = queue.jobs()[start.job];
      const simhw::NodeConfig& node_cfg =
          cfg.islands[start.island].node_config;
      workload::SyntheticSpec spec = job.work;
      spec.active_cores =
          std::min(spec.active_cores, node_cfg.total_cores());
      Shard& sh = shards[start.island];
      job_running[start.job] = running.size();
      RunningJob& rj = running.emplace_back(
          RunningJob{.job = start.job,
                     .island = start.island,
                     .local_nodes = std::move(start.local_nodes),
                     .demand = workload::make_demand(node_cfg, spec),
                     .start_inm_j = 0.0,
                     .live = true});
      for (std::size_t local : rj.local_nodes) {
        NodeSlot& slot = sh.slots[local];
        slot.demand = &rj.demand;
        slot.iters_left = spec.iterations;
        sh.done_round[local] = spec.iterations == 0 ? round : kNoRound;
        rj.start_inm_j += sh.cluster->node(local).inm().exact().value;
      }
      sh.jobs.push_back(
          ShardJob{.job = start.job, .local_nodes = rj.local_nodes});
      FacilityJobOutcome& o = out.jobs[start.job];
      o.island = start.island;
      o.nodes = rj.local_nodes.size();
      o.start_s = now;
      ++live_jobs;
    }

    // Window: how many rounds can every shard integrate autonomously?
    // One, unless no control-plane event can land inside the stretch: a
    // live federation re-splits caps every round, a pending job may
    // admit as soon as a completion frees nodes, and arrival / fault
    // boundaries pin their exact rounds. Completions inside a window are
    // safe — the merge replays them round-by-round from snapshots, so
    // results do not depend on the window length. Drain windows double
    // from the previous one rather than jumping to kMaxWindow: the run
    // may end a few rounds in, and every round past the end is
    // integrated for nothing.
    std::size_t window = 1;
    if (!federation && queue.pending() == 0) {
      const std::size_t grown = std::min(kMaxWindow, 2 * last_window);
      while (window < grown &&
             static_cast<double>(round + window) * cfg.round_s +
                     cfg.round_s <=
                 cfg.max_sim_s) {
        ++window;
      }
      const std::size_t next_event = global_events.next_round();
      if (next_event != EventQueue::npos) {
        window = std::min(window, next_event - round);
      }
    }
    last_window = window;

    // Parallel phase: the crew claims node chunks; every RNG draw in
    // here comes from a node-local stream. Buffer sizing before it and
    // completion posting after it stay serial.
    for (Shard& sh : shards) sh.begin_window(round, window);
    crew.run(chunks.size(), advance);
    for (Shard& sh : shards) sh.post_completions();

    // Serial merge: replay the window round-by-round in shard-index
    // order — the same readings arithmetic, fault-stream draw order and
    // completion order as the reference loop's per-round tail.
    for (std::size_t w = 0; w < window; ++w) {
      const std::size_t r = round + w;
      const double rnow = static_cast<double>(r) * cfg.round_s;
      const double rend = rnow + cfg.round_s;

      // The shards already computed this round's readings with the
      // reference arithmetic; the barrier only loads and sums them, in
      // the same shard-index/node order the reference sweep uses.
      double total_w = 0.0;
      for (Shard& sh : shards) {
        const double* win = sh.win_reading_w.data() + w * sh.size;
        double* dst = readings.data() + sh.offset;
        for (std::size_t n = 0; n < sh.size; ++n) {
          dst[n] = win[n];
          total_w += dst[n];
        }
      }
      if (!std::isfinite(total_w)) nonfinite = true;
      out.peak_power_w = std::max(out.peak_power_w, total_w);

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
        if (rnow >= last_fault_end_s && overrun > slack_w && !degraded) {
          if (++consecutive_over > cfg.overrun_grace) {
            ++persistent_overruns;
          }
        } else {
          consecutive_over = 0;
        }
      }

      // Fault tier: rounds outside every activity window draw nothing (in
      // the reference loop too), so the schedule gate skips dead scans.
      if (fault_sched.any_active(r)) {
        for (const auto& f : cfg.fault_plan.specs) {
          if (!f.active_at(rnow)) continue;
          if (f.family == faults::FaultFamily::kNodeDropout) {
            for (std::size_t g = 0; g < total_nodes; ++g) {
              if (!f.applies_to_node(g)) continue;
              if (fault_rng.uniform() < f.probability) {
                if (std::isfinite(readings[g])) {
                  ++out.faults.dropped_readings;
                }
                readings[g] = std::numeric_limits<double>::quiet_NaN();
              }
            }
          } else if (f.family == faults::FaultFamily::kIslandDropout) {
            for (std::size_t i = 0; i < shards.size(); ++i) {
              if (!f.applies_to_island(i)) continue;
              if (fault_rng.uniform() < f.probability) {
                ++out.faults.island_dropouts;
                for (std::size_t n = 0; n < shards[i].size; ++n) {
                  readings[shards[i].offset + n] =
                      std::numeric_limits<double>::quiet_NaN();
                }
              }
            }
          }
        }
      }

      if (federation) federation->update(readings);

      // Completions: the shards posted exact phase-change events for
      // every job that drained in this window; pop the ones due at this
      // round (shard-index order) and settle them in admission order.
      std::vector<std::size_t> due;
      for (Shard& sh : shards) {
        while (!sh.events.empty() && sh.events.next_round() <= r) {
          due.push_back(job_running[sh.events.pop().payload]);
        }
      }
      std::sort(due.begin(), due.end());
      for (std::size_t ri : due) {
        RunningJob& rj = running[ri];
        EAR_CHECK(rj.live);
        Shard& sh = shards[rj.island];
        double end_inm = 0.0;
        for (std::size_t local : rj.local_nodes) {
          end_inm += sh.win_inm_j[w * sh.size + local];
          sh.slots[local].demand = nullptr;
        }
        FacilityJobOutcome& o = out.jobs[rj.job];
        o.end_s = rend;
        o.energy_j = end_inm - rj.start_inm_j;
        if (!std::isfinite(o.energy_j)) nonfinite = true;
        out.makespan_s = std::max(out.makespan_s, o.end_s);
        queue.release(rj.island, rj.local_nodes);
        rj.live = false;
        --live_jobs;
      }
      out.rounds = r + 1;

      if (live_jobs == 0 && queue.all_started()) {
        // Termination may land mid-window: the shards over-integrated
        // the tail rounds, so rewind their per-node bookkeeping to this
        // round's snapshots — the epilogue then reads node state exactly
        // as a reference run that stopped here would. Single-round
        // windows take no snapshots and need no rewind: the slots'
        // prev-* values already are this round's state.
        if (window > 1) {
          for (Shard& sh : shards) sh.rewind_to(w);
        }
        finished = true;
        break;
      }
    }
    if (finished) break;
    round += window;
  }
  out.walls.build_s =
      std::chrono::duration<double>(wall_t1 - wall_t0).count();
  out.walls.core_s = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - wall_t1).count();

  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& sh = shards[i];
    FacilityIslandOutcome io;
    io.node_type = cfg.islands[i].node_config.name;
    io.nodes = sh.size;
    for (std::size_t n = 0; n < sh.size; ++n) {
      io.energy_j += sh.slots[n].prev_inm_j;
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

  if (nonfinite) {
    out.violations.push_back("non-finite energy/power in ground truth");
  }
  if (wedged) {
    out.violations.push_back("facility wedged: max_sim_s reached with " +
                             std::to_string(live_jobs) +
                             " jobs running");
  }
  if (persistent_overruns > 0) {
    out.violations.push_back(
        "cap overrun beyond " +
        common::AsciiTable::num(cfg.cap_slack_pct, 0) +
        "% slack persisted past the grace window in " +
        std::to_string(persistent_overruns) + " rounds");
  }
  return out;
}

}  // namespace ear::sim
