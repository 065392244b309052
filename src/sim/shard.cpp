#include "sim/shard.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>

#include "simhw/energy_counts.hpp"
#include "simhw/msr.hpp"

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

std::int64_t reading_mw(std::uint64_t counts, double dt_s) {
  constexpr double kMilliwattSecondsPerCount =
      1000.0 * simhw::kJoulesPerEnergyCount;
  const double mw =
      static_cast<double>(counts) * kMilliwattSecondsPerCount / dt_s;
  EAR_CHECK_MSG(mw < 0x1p52, "node reading out of range");
  return static_cast<std::int64_t>(mw + 0.5);
}

std::uint64_t NodeSlot::counts_at(const simhw::SimNode& node,
                                  std::size_t r) const {
  if (idle_since != kNoRound && r + 1 >= idle_since) {
    return simhw::add_energy_counts(
        node.inm().counts(),
        simhw::scale_energy_counts(idle_counts, r + 1 - idle_since));
  }
  // Drained but not yet idle at `r`: it sat out every round since its
  // done round, because a node that idles to a boundary lands on it and
  // joins the idle set.
  if (done_round != kNoRound) return done_counts;
  return node.inm().counts();
}

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

void Shard::advance(NodeChunk& chunk) {
  chunk.visited_mw.assign(window_rounds, 0);
  chunk.joined_mw.assign(window_rounds, 0);
  // Iterate the cluster directly: node(n) is an out-of-line
  // bounds-checked call, and this loop is the simulator's innermost.
  const auto nodes = cluster->begin();
  // Each round's busy nodes go in blocks whose stretches run as one
  // batch, which draws their noise in one vector pass. The block
  // scratch is on the stack and written before it is read.
  constexpr std::size_t kBlock = 16;
  std::array<simhw::SimNode::StretchRun, kBlock> runs;
  std::array<std::uint64_t, kBlock> e0;
  std::array<double, kBlock> t0;
  for (std::size_t w = 0; w < window_rounds && !chunk.busy.empty(); ++w) {
    const std::size_t r = window_first_round + w;
    const double round_end = static_cast<double>(r) * round_s + round_s;
    std::size_t kept = 0;
    for (std::size_t first = 0; first < chunk.busy.size(); first += kBlock) {
      const std::size_t size = std::min(kBlock, chunk.busy.size() - first);
      const std::span<const std::uint32_t> block(&chunk.busy[first], size);
      std::size_t stretches = 0;
      for (std::size_t i = 0; i < block.size(); ++i) {
        simhw::SimNode& node = nodes[static_cast<std::ptrdiff_t>(block[i])];
        const NodeSlot& slot = slots[block[i]];
        e0[i] = node.inm().counts();
        t0[i] = node.clock().value;
        // Guard on the clock too: a multi-second iteration overshoots
        // the round boundary and then sits out the following rounds,
        // and a stretch's hoisted setup is pure waste on those.
        if (slot.iters_left > 0 && t0[i] < round_end) {
          runs[stretches++] = {.node = &node,
                               .demand = slot.demand,
                               .max_iters = slot.iters_left,
                               .stop_before_s = round_end};
        }
      }
      // One phase-stable stretch per node: closed-form governor
      // integration in place of the reference loop's iteration-at-a-time
      // stepping.
      simhw::SimNode::execute_stretches(std::span(runs).first(stretches));
      stretches = 0;
      for (std::size_t i = 0; i < block.size(); ++i) {
        const std::uint32_t n = block[i];
        simhw::SimNode& node = nodes[static_cast<std::ptrdiff_t>(n)];
        NodeSlot& slot = slots[n];
        if (slot.iters_left > 0 && t0[i] < round_end) {
          slot.iters_left -= runs[stretches++].out.iterations;
          if (slot.iters_left == 0) slot.done_round = r;
        }
        node.idle_until(common::Secs{round_end});
        const std::uint64_t e1 = node.inm().counts();
        const double dt = node.clock().value - t0[i];
        // Power is the INM delta over the clock delta, and a stalled
        // clock holds the last reading — the reference loop's rule.
        if (dt > 0.0) slot.reading_mw = reading_mw(e1 - e0[i], dt);
        chunk.visited_mw[w] += slot.reading_mw;
        if (slot.done_round == r) slot.done_counts = e1;
        if (slot.iters_left == 0 && node.clock().value == round_end) {
          slot.idle_since = r + 1;
          slot.idle_counts = node.idle_inm_counts(common::Secs{round_s});
          slot.idle_mw = reading_mw(slot.idle_counts, round_s);
          slot.idle_window = node.msr(0).read(simhw::kMsrUncoreRatioLimit);
          chunk.joined_mw[w] += slot.idle_mw;
        } else {
          // Never past the block's own entries: kept <= first + i.
          chunk.busy[kept++] = n;
        }
      }
    }
    chunk.busy.resize(kept);
  }
}

void Shard::wake(std::size_t local, std::size_t r) {
  NodeSlot& slot = slots[local];
  EAR_CHECK(slot.idle_since != kNoRound && slot.idle_since <= r);
  simhw::SimNode& node = cluster->node(local);
  EAR_CHECK_MSG(
      node.msr(0).read(simhw::kMsrUncoreRatioLimit) == slot.idle_window,
      "a node's uncore window changed while it was idle");
  node.settle_idle(common::Secs{round_s}, r - slot.idle_since);
  EAR_CHECK(node.clock().value == static_cast<double>(r) * round_s);
  idle_mw -= slot.idle_mw;
  slot.idle_since = kNoRound;
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
      done_at = std::max(done_at, slots[local].done_round);
    }
    events.push({done_at, EventKind::kCompletionCheck, j.job});
    return true;
  });
}

}  // namespace ear::sim
