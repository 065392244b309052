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
#include "simhw/energy_counts.hpp"
#include "simhw/msr.hpp"

namespace ear::sim {

namespace {

/// Longest stretch of control rounds one barrier may cover: bounds how
/// far a shard can run ahead of a completion that would end the
/// simulation.
constexpr std::size_t kMaxWindow = 64;

/// Nodes per unit of parallel work. Whole islands are too coarse:
/// first-fit admission packs the busy nodes into the low islands, so one
/// shard could hold up a whole window. At 10k nodes, 64 to 512 measured
/// within ~8% of each other and 32 fell behind; 128 still splits an
/// island of a few hundred nodes over several workers.
constexpr std::size_t kChunkNodes = 128;

/// Per-running-job bookkeeping (admission order). The job's nodes point
/// their slots at `demand`.
struct RunningJob {
  std::size_t job = 0;
  std::size_t island = 0;
  std::vector<std::size_t> local_nodes;
  simhw::WorkDemand demand{};
  simhw::EnergyTotal start_counts = 0;
  bool live = false;
};

/// Most bytes one facility node can cost: its hardware, daemon and slot,
/// its entry in a chunk's busy list, its per-round reading (allocated
/// for the federation and the dropout draws) and the federation's
/// per-node state (daemon pointer, last known power, missed readings).
constexpr std::uint64_t kBytesPerNode =
    sizeof(simhw::SimNode) + sizeof(eard::NodeDaemon) + sizeof(NodeSlot) +
    sizeof(std::uint32_t) + sizeof(double) + sizeof(eard::NodeDaemon*) +
    sizeof(double) + sizeof(std::size_t);

/// a + b for milliwatt sums, failing a check instead of wrapping.
std::int64_t add_mw(std::int64_t a, std::int64_t b) {
  std::int64_t sum = 0;
  EAR_CHECK_MSG(!__builtin_add_overflow(a, b, &sum),
                "facility power sum overflow");
  return sum;
}

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
  check_facility_timing(cfg);
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
    EAR_CHECK_MSG(cfg.islands[i].nodes <= UINT32_MAX,
                  "island larger than a busy list can index");
    Shard& sh = shards[i];
    sh.index = i;
    sh.seed = common::mix_seed(cfg.seed, i);
    sh.offset = total_nodes;
    sh.size = cfg.islands[i].nodes;
    sh.round_s = cfg.round_s;
    total_nodes += sh.size;
  }
  // Parallel work items: fixed-size node chunks of every shard in
  // shard-index order; shard i owns chunks [chunk_base[i],
  // chunk_base[i + 1]). One crew serves the whole run — the island build
  // below and every window's advance.
  std::vector<NodeChunk> chunks;
  std::vector<std::size_t> chunk_base;
  for (const Shard& sh : shards) {
    chunk_base.push_back(chunks.size());
    for (std::size_t lo = 0; lo < sh.size; lo += kChunkNodes) {
      chunks.push_back(NodeChunk{.shard = sh.index});
    }
  }
  chunk_base.push_back(chunks.size());
  const auto chunk_of = [&](std::size_t island,
                           std::size_t local) -> NodeChunk& {
    return chunks[chunk_base[island] + local / kChunkNodes];
  };
  common::Crew crew(
      std::min(common::resolve_jobs(cfg.sim_jobs), chunks.size()));

  // Island hardware builds concurrently: every stream in a cluster is
  // rooted at the island seed, so the result is bitwise-independent of
  // the worker count (and of whether the build ran concurrently at all).
  // Every node starts idle: its boot window and node type fix what an
  // idle round deposits, so one node's quantum serves the island.
  crew.run(shards.size(), [&](std::size_t i) {
    Shard& sh = shards[i];
    clusters[i] = std::make_unique<simhw::Cluster>(
        cfg.islands[i].node_config, cfg.islands[i].nodes, sh.seed,
        cfg.noise, cfg.ufs);
    sh.cluster = clusters[i].get();
    const simhw::SimNode& first = sh.cluster->node(0);
    NodeSlot idle;
    idle.idle_since = 0;
    idle.idle_counts = first.idle_inm_counts(common::Secs{cfg.round_s});
    idle.idle_mw = reading_mw(idle.idle_counts, cfg.round_s);
    idle.idle_window = first.msr(0).read(simhw::kMsrUncoreRatioLimit);
    sh.slots.assign(sh.size, idle);
    std::int64_t sum = 0;
    EAR_CHECK_MSG(!__builtin_mul_overflow(static_cast<std::int64_t>(sh.size),
                                          idle.idle_mw, &sum),
                  "facility power sum overflow");
    sh.idle_mw = sum;
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

  // Per-node readings, only for what reads them node by node: the
  // federation and the dropout draws (which hide readings from it).
  // Rounds that fill them are one-round windows, so every entry is that
  // round's reading. The fault stream is drawn in shard-index order.
  const bool per_node_readings =
      federation != nullptr || !cfg.fault_plan.specs.empty();
  std::vector<double> readings(per_node_readings ? total_nodes : 0, 0.0);
  common::Rng fault_rng(common::mix_seed(cfg.seed, 0xFAC111));

  // The window each chunk advances through is published to the crew by
  // the epoch increment inside Crew::run (release/acquire pairing).
  const common::Crew::Body advance = [&shards, &chunks](std::size_t c) {
    shards[chunks[c].shard].advance(chunks[c]);
  };

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
    // An idle node settles its idle rounds and goes back on its chunk's
    // busy list.
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
                     .live = true});
      for (std::size_t local : rj.local_nodes) {
        NodeSlot& slot = sh.slots[local];
        if (slot.idle_since != kNoRound) {
          sh.wake(local, round);
          chunk_of(start.island, local)
              .busy.push_back(static_cast<std::uint32_t>(local));
        }
        slot.demand = &rj.demand;
        slot.iters_left = spec.iterations;
        slot.done_round = spec.iterations == 0 ? round : kNoRound;
        rj.start_counts += sh.cluster->node(local).inm().counts();
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
    // One, unless no control-plane event can land inside the stretch and
    // nothing reads per-node readings: a live federation re-splits caps
    // every round, a pending job may admit as soon as a completion frees
    // nodes, active dropouts hide per-node readings, and arrival / fault
    // boundaries pin their exact rounds. Completions inside a window are
    // safe — the merge replays them round-by-round from the integer
    // counters, so results do not depend on the window length. Drain
    // windows double from the previous one rather than jumping to
    // kMaxWindow: the run may end a few rounds in, and every round past
    // the end is integrated for nothing.
    std::size_t window = 1;
    if (!federation && queue.pending() == 0 &&
        !fault_sched.any_active(round)) {
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
    // here comes from a node-local stream. Completion posting after it
    // stays serial.
    for (Shard& sh : shards) {
      sh.window_first_round = round;
      sh.window_rounds = window;
    }
    crew.run(chunks.size(), advance);
    for (Shard& sh : shards) sh.post_completions();

    // Serial merge: replay the window round-by-round in shard-index
    // order — the reference loop's fault-stream draw order and
    // completion order. Each island's total is its idle sum plus its
    // chunks' visited readings: integers, so O(chunks), not O(nodes).
    for (std::size_t w = 0; w < window; ++w) {
      const std::size_t r = round + w;
      const double rnow = static_cast<double>(r) * cfg.round_s;
      const double rend = rnow + cfg.round_s;

      std::int64_t total_mw = 0;
      for (std::size_t i = 0; i < shards.size(); ++i) {
        Shard& sh = shards[i];
        std::int64_t island_mw = sh.idle_mw;
        std::int64_t joined_mw = 0;
        for (std::size_t c = chunk_base[i]; c < chunk_base[i + 1]; ++c) {
          island_mw = add_mw(island_mw, chunks[c].visited_mw[w]);
          joined_mw = add_mw(joined_mw, chunks[c].joined_mw[w]);
        }
        total_mw = add_mw(total_mw, island_mw);
        sh.idle_mw = add_mw(sh.idle_mw, joined_mw);
      }
      const double total_w = static_cast<double>(total_mw) / 1000.0;
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

      // Rounds outside every activity window draw nothing (in the
      // reference loop too), so the schedule gate skips dead scans.
      const bool faulted = fault_sched.any_active(r);
      if (federation || faulted) {
        for (const Shard& sh : shards) {
          double* dst = readings.data() + sh.offset;
          for (std::size_t n = 0; n < sh.size; ++n) {
            const NodeSlot& slot = sh.slots[n];
            dst[n] = static_cast<double>(slot.idle_since <= r
                                             ? slot.idle_mw
                                             : slot.reading_mw) /
                     1000.0;
          }
        }
      }
      if (faulted) {
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
      // round (shard-index order) and settle them in admission order. A
      // node's counter at this round follows from its slot, however far
      // the window advanced it.
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
        simhw::EnergyTotal end_counts = 0;
        for (std::size_t local : rj.local_nodes) {
          NodeSlot& slot = sh.slots[local];
          end_counts += slot.counts_at(sh.cluster->node(local), r);
          slot.demand = nullptr;
        }
        EAR_CHECK(end_counts >= rj.start_counts);
        FacilityJobOutcome& o = out.jobs[rj.job];
        o.end_s = rend;
        o.energy_j =
            simhw::energy_counts_to_joules(end_counts - rj.start_counts).value;
        out.makespan_s = std::max(out.makespan_s, o.end_s);
        queue.release(rj.island, rj.local_nodes);
        rj.live = false;
        --live_jobs;
      }
      out.rounds = r + 1;

      // Termination may land mid-window: the shards advanced the tail
      // rounds for nothing, and the epilogue reads every node's counter
      // as of this round.
      if (live_jobs == 0 && queue.all_started()) {
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

  // Island energies: every node's counter as of the last merged round.
  simhw::EnergyTotal facility_counts = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& sh = shards[i];
    FacilityIslandOutcome io;
    io.node_type = cfg.islands[i].node_config.name;
    io.nodes = sh.size;
    simhw::EnergyTotal island_counts = 0;
    for (std::size_t n = 0; n < sh.size; ++n) {
      island_counts +=
          sh.slots[n].counts_at(sh.cluster->node(n), out.rounds - 1);
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
