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
// Only busy nodes are visited. A node that has no work left and sits
// exactly on a round boundary joins the shard's idle set: it records the
// first round it sits out (`idle_since`) and is not touched again until
// something needs its state — an admission settles its whole idle
// rounds in O(1) (SimNode::settle_idle). Every idle round of a node
// deposits the same whole number of energy counts, so its energy at any
// round follows from its counters, and its reading is a constant: the
// shard keeps the sum of its idle nodes' readings, and a round's island
// total is that sum plus the visited nodes' readings, all integer
// milliwatts, so no summation order can change it.
//
// Between barriers a shard advances autonomously through a *window* of
// control rounds. Workers claim node chunks (fixed local ranges, each
// with its own busy list and per-round reading sums); the serial merge
// then replays the window round by round. The owner-thread discipline
// follows the RROS per-CPU run-queue idiom cited in the roadmap, at
// chunk granularity: inside the advance a worker owns its chunk's busy
// list, sums, slots and nodes (every node's RNG streams are its own),
// while the job list, the event queue and the idle sum are touched only
// serially, by the merge thread. Handover synchronises through
// common::Crew's epoch barrier: the epoch increment publishes the window
// to the workers and the done count hands the chunks back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "simhw/cluster.hpp"
#include "simhw/demand.hpp"

namespace ear::sim {

inline constexpr std::size_t kNoJob = std::numeric_limits<std::size_t>::max();
inline constexpr std::size_t kNoRound =
    std::numeric_limits<std::size_t>::max();

/// A node's average power over `dt_s` seconds in which its INM counter
/// advanced `counts` (2^-30 J each), in whole milliwatts, rounded to the
/// nearest. Readings out of range (2^52 mW) fail a check.
[[nodiscard]] std::int64_t reading_mw(std::uint64_t counts, double dt_s);

/// Per-node execution/accounting state (one array per shard).
struct NodeSlot {
  /// The running job's demand, held once per job by the facility loop;
  /// null while the node is free.
  const simhw::WorkDemand* demand = nullptr;
  std::size_t iters_left = 0;
  /// Round in which the node drained its current job (kNoRound while
  /// work remains), and its INM counter at the end of that round.
  std::size_t done_round = kNoRound;
  std::uint64_t done_counts = 0;
  /// First round the node sits out entirely idle (0 for a fresh node);
  /// kNoRound while it is visited. The node's counters stop at the end
  /// of the round before.
  std::size_t idle_since = 0;
  /// What one whole idle round adds to its INM counter, the reading of
  /// such a round, and the MSR uncore window both were computed under.
  std::uint64_t idle_counts = 0;
  std::int64_t idle_mw = 0;
  std::uint64_t idle_window = 0;
  /// The reading of the last round the node was visited (held while
  /// its clock does not move).
  std::int64_t reading_mw = 0;

  /// The node's INM counter at the end of round `r`. Valid for any `r`
  /// from its done round on, and for `r` the last round advanced.
  [[nodiscard]] std::uint64_t counts_at(const simhw::SimNode& node,
                                        std::size_t r) const;
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

/// One unit of parallel work: a fixed range of one shard's nodes, the
/// ones among them that are visited, and what the window's rounds read.
struct NodeChunk {
  std::size_t shard = 0;
  /// Local indices of the nodes of the range visited each round (any
  /// order).
  std::vector<std::uint32_t> busy;
  /// Per window round: the sum of the visited nodes' readings, and of
  /// the idle readings of the nodes that joined the idle set at its end.
  std::vector<std::int64_t> visited_mw;
  std::vector<std::int64_t> joined_mw;
};

struct Shard {
  std::size_t index = 0;            // == island index
  std::uint64_t seed = 0;           // mix_seed(facility seed, index);
                                    // root of every stream in the shard
  simhw::Cluster* cluster = nullptr;
  std::size_t offset = 0;           // first global node index
  std::size_t size = 0;
  double round_s = 0.0;             // control-round length
  /// The window being advanced: set by the merge thread, read-only
  /// while workers advance chunks.
  std::size_t window_first_round = 0;
  std::size_t window_rounds = 0;

  std::vector<NodeSlot> slots;
  /// Sum of idle_mw over the idle set as of the next round to merge.
  std::int64_t idle_mw = 0;
  /// Running jobs whose completion event is not yet posted.
  std::vector<ShardJob> jobs;
  /// Phase-change events (exact completion rounds) for the merge.
  EventQueue events;

  /// Advance the chunk's busy nodes through the current window, one
  /// phase-stable stretch per node per round, idling each to the round
  /// boundary; a node left with no work on the boundary joins the idle
  /// set. Safe to run concurrently on distinct chunks.
  void advance(NodeChunk& chunk);

  /// Settle an idle node's whole idle rounds up to round `r` (exclusive)
  /// and take it out of the idle set; the caller puts it on its chunk's
  /// busy list. Fails a check if its MSR uncore window moved while it
  /// was idle. Serial.
  void wake(std::size_t local, std::size_t r);

  /// Post completion events for jobs that drained inside the window and
  /// drop them from `jobs`. Serial, after every chunk has advanced.
  void post_completions();
};

}  // namespace ear::sim
