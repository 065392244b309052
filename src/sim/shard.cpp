#include "sim/shard.hpp"

#include <algorithm>
#include <cstddef>

namespace ear::sim {

namespace {

/// Min-heap "later than" order on (round, kind, payload). Total and
/// deterministic: two events comparing equal are byte-identical, so the
/// pop order of duplicates can never leak into results.
bool later(const Event& a, const Event& b) {
  if (a.round != b.round) return a.round > b.round;
  if (a.kind != b.kind) return a.kind > b.kind;
  return a.payload > b.payload;
}

}  // namespace

void EventQueue::push(Event e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

Event EventQueue::pop() {
  EAR_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Event e = heap_.back();
  heap_.pop_back();
  return e;
}

void Shard::begin_window(std::size_t first_round, std::size_t rounds) {
  window_first_round = first_round;
  window_rounds = rounds;
  // The INM snapshot feeds job-energy accounting at every window size;
  // the clock snapshot only feeds rewind_to, which mid-window
  // termination never needs for a single-round window (the slots'
  // prev-* bookkeeping already is that round's snapshot).
  win_inm_j.resize(rounds * size);
  if (rounds > 1) win_clock_s.resize(rounds * size);
  win_reading_w.resize(rounds * size);
}

void Shard::advance_nodes(std::size_t lo, std::size_t hi) {
  EAR_CHECK(lo <= hi && hi <= size);
  const bool snapshot = window_rounds > 1;
  // Iterate the cluster directly: node(n) is an out-of-line
  // bounds-checked call, and this loop is the simulator's innermost.
  const auto first_node = cluster->begin() + static_cast<std::ptrdiff_t>(lo);
  for (std::size_t w = 0; w < window_rounds; ++w) {
    const double round_end =
        static_cast<double>(window_first_round + w) * round_s + round_s;
    auto node_it = first_node;
    for (std::size_t n = lo; n < hi; ++n, ++node_it) {
      simhw::SimNode& node = *node_it;
      NodeSlot& slot = slots[n];
      // Guard on the clock too: a multi-second iteration overshoots the
      // round boundary and then sits out the following rounds, and
      // execute_stretch's hoisted setup is pure waste on those (~45% of
      // all node-rounds in the capped busy-regime bench).
      if (slot.demand != nullptr && slot.iters_left > 0 &&
          node.clock().value < round_end) {
        // One phase-stable stretch: closed-form governor integration in
        // place of the reference loop's iteration-at-a-time stepping.
        const simhw::StretchSummary s =
            node.execute_stretch(*slot.demand, slot.iters_left, round_end);
        slot.iters_left -= s.iterations;
        if (slot.iters_left == 0) done_round[n] = window_first_round + w;
      }
      const double gap = round_end - node.clock().value;
      // idle_cached: bitwise-identical to idle() (same deposits, same
      // governor run) with the constant idle power memoised — the bulk
      // of a mostly-idle facility's node-rounds.
      if (gap > 0.0) node.idle_cached(common::Secs{gap});
      const double e = node.inm().exact().value;
      const double t = node.clock().value;
      win_inm_j[w * size + n] = e;
      if (snapshot) win_clock_s[w * size + n] = t;
      // The reference loop's reading arithmetic, verbatim: power is the
      // INM delta over the clock delta since the previous round, and a
      // stalled clock holds the last reading.
      const double de = e - slot.prev_inm_j;
      const double dt = t - slot.prev_clock_s;
      if (dt > 0.0) slot.last_reading = common::Power{de / dt};
      slot.prev_inm_j = e;
      slot.prev_clock_s = t;
      win_reading_w[w * size + n] = slot.last_reading.value;
    }
  }
}

void Shard::post_completions() {
  // The merge completes a job the round its slowest node finishes — the
  // same round the reference sweep would detect it. Posted jobs leave
  // the list, so later windows scan only running ones; the event heap
  // orders by (round, kind, job), so posting order cannot leak.
  std::erase_if(jobs, [this](const ShardJob& j) {
    std::size_t done_at = 0;
    for (std::size_t local : j.local_nodes) {
      if (slots[local].iters_left > 0) return false;
      done_at = std::max(done_at, done_round[local]);
    }
    events.push({done_at, EventKind::kCompletionCheck, j.job});
    return true;
  });
}

void Shard::rewind_to(std::size_t w) {
  for (std::size_t n = 0; n < size; ++n) {
    slots[n].prev_inm_j = win_inm_j[w * size + n];
    slots[n].prev_clock_s = win_clock_s[w * size + n];
  }
}

}  // namespace ear::sim
