// Shard-local state for the event-driven facility core.
//
// A shard is one island: the facility's natural unit of isolation. Every
// RNG stream inside a shard (its nodes' noise streams, its governors'
// dither streams) derives from the shard seed `mix_seed(facility_seed,
// shard_index)` — the same per-island seeding the reference loop uses —
// so shard advancement is fully independent of both the worker-thread
// count and the other shards. Cross-shard effects (federated cap
// re-splits, fault draws against the shared fault stream, job admission
// and completion accounting) happen only at barrier rounds, merged in
// serial shard-index order, which keeps every result bitwise-identical
// at any `sim_jobs`.
//
// Between barriers a shard advances autonomously through a *window* of
// control rounds, recording per-round INM/clock snapshots so the serial
// merge can replay readings, fault draws and completions round-by-round
// in exactly the reference loop's order. A window takes three steps:
// begin_window sizes the snapshot buffers, advance_nodes integrates
// disjoint node ranges (on several workers at once), and
// post_completions turns drained jobs into events. The owner-thread
// discipline follows the RROS per-CPU run-queue idiom cited in the
// roadmap, at node granularity: inside the advance a worker owns its
// range's slots, done rounds and snapshot columns (every node's RNG
// streams are its own), while buffer sizes, the job list and the event
// queue are touched only serially, by the merge thread. Handover
// synchronises through common::Crew's epoch barrier: the epoch increment
// publishes the window to the workers and the done count hands the
// node ranges back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.hpp"
#include "simhw/cluster.hpp"
#include "simhw/demand.hpp"

namespace ear::sim {

inline constexpr std::size_t kNoJob = std::numeric_limits<std::size_t>::max();
inline constexpr std::size_t kNoRound =
    std::numeric_limits<std::size_t>::max();

/// Per-node execution/accounting state: the node's job, remaining work
/// and power-reading bookkeeping (one array per shard).
struct NodeSlot {
  /// The running job's demand, held once per job by the facility loop;
  /// null while the node is free.
  const simhw::WorkDemand* demand = nullptr;
  std::size_t iters_left = 0;
  double prev_inm_j = 0.0;
  double prev_clock_s = 0.0;
  common::Power last_reading{0.0};
};

/// Facility events. The global queue carries arrival/fault/EARGM
/// boundaries (anything that can change control state and therefore ends
/// a window); each shard's queue carries its phase-change events — exact
/// job-completion rounds posted by the window advance.
enum class EventKind : std::uint8_t {
  kJobArrival = 0,      // queue.admit() can change state at this round
  kFaultBoundary = 1,   // the active dropout-spec set changes
  kEargmRound = 2,      // federation barrier (cap re-split) due
  kCompletionCheck = 3  // phase change: a job finished at this round
};

struct Event {
  std::size_t round = 0;
  EventKind kind = EventKind::kJobArrival;
  std::size_t payload = 0;  // job index for completion events
};

/// Deterministic min-heap on (round, kind, payload). Duplicate events
/// compare equal, so heap internals can never leak into results.
class EventQueue {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  void push(Event e);
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Round of the earliest pending event, npos when empty.
  [[nodiscard]] std::size_t next_round() const {
    return heap_.empty() ? npos : heap_.front().round;
  }
  Event pop();

 private:
  std::vector<Event> heap_;
};

/// One running job as its owning shard sees it (jobs never span islands).
struct ShardJob {
  std::size_t job = 0;                   // facility job index
  std::vector<std::size_t> local_nodes;  // island-local, ascending
};

struct Shard {
  std::size_t index = 0;            // == island index
  std::uint64_t seed = 0;           // mix_seed(facility seed, index);
                                    // root of every stream in the shard
  simhw::Cluster* cluster = nullptr;
  std::size_t offset = 0;           // first global node index
  std::size_t size = 0;
  double round_s = 0.0;             // control-round length
  /// The window being advanced: set by begin_window, read-only while
  /// workers run advance_nodes.
  std::size_t window_first_round = 0;
  std::size_t window_rounds = 0;

  std::vector<NodeSlot> slots;
  /// Round in which each node drained its current job (kNoRound while
  /// work remains); reset at admission.
  std::vector<std::size_t> done_round;
  /// Running jobs whose completion event is not yet posted.
  std::vector<ShardJob> jobs;
  /// Phase-change events (exact completion rounds) for the merge.
  EventQueue events;
  /// Per-(window round, local node) INM energy / clock snapshots: the
  /// serial merge replays readings and completions from these, so a
  /// mid-window termination never observes over-advanced node state.
  std::vector<double> win_inm_j;
  std::vector<double> win_clock_s;
  /// Per-(window round, local node) power readings, computed inside the
  /// parallel phase with the reference loop's exact arithmetic
  /// (delta-energy over delta-clock against the previous round, holding
  /// the last finite reading when the clock did not move). The serial
  /// merge only loads and sums these, keeping the barrier O(nodes) adds.
  std::vector<double> win_reading_w;

  /// Reset slots' prev-energy/clock bookkeeping to the snapshots of
  /// window round `w` — used when termination lands mid-window, so the
  /// epilogue reads node state exactly as of the final merged round.
  void rewind_to(std::size_t w);

  /// Start a window of `rounds` control rounds at `first_round`: record
  /// it and size the snapshot buffers. Serial.
  void begin_window(std::size_t first_round, std::size_t rounds);

  /// Advance local nodes [lo, hi) through the current window, one
  /// phase-stable stretch per busy node per round, idling to each round
  /// boundary. Safe to run concurrently on disjoint ranges.
  void advance_nodes(std::size_t lo, std::size_t hi);

  /// Post completion events for jobs that drained inside the window and
  /// drop them from `jobs`. Serial, after every range has advanced.
  void post_completions();
};

}  // namespace ear::sim
