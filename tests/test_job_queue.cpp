// Facility job-admission queue tests: arrival ordering, deterministic
// lowest-node allocation, island probing, backfill accounting, the
// strict-FIFO fallback, and the bitset free-set's equivalence with the
// sorted-vector scan it replaced.
#include "sim/job_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace ear::sim {
namespace {

FacilityJob job(const std::string& name, std::size_t nodes,
                double submit_s) {
  FacilityJob j;
  j.name = name;
  j.nodes = nodes;
  j.submit_s = submit_s;
  return j;
}

TEST(JobQueue, RejectsImpossibleJobs) {
  EXPECT_THROW(JobQueue({job("zero", 0, 0.0)}, {4}), common::ConfigError);
  // Wider than every island: could never start.
  EXPECT_THROW(JobQueue({job("wide", 5, 0.0)}, {4, 2}),
               common::ConfigError);
  // Fits the widest island: fine.
  EXPECT_NO_THROW(JobQueue({job("ok", 4, 0.0)}, {4, 2}));
}

TEST(JobQueue, FifoOrderAndLowestNodeAllocation) {
  JobQueue q({job("a", 2, 0.0), job("b", 2, 0.0), job("c", 2, 0.0)}, {4});
  const std::vector<JobStart> starts = q.admit(0.0);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].job, 0u);
  EXPECT_EQ(starts[0].local_nodes, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(starts[1].job, 1u);
  EXPECT_EQ(starts[1].local_nodes, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.free_nodes(0), 0u);
  EXPECT_FALSE(q.all_started());

  // "a" finishes; "c" reuses its (lowest-numbered) nodes.
  q.release(0, {0, 1});
  const std::vector<JobStart> later = q.admit(1.0);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].job, 2u);
  EXPECT_EQ(later[0].local_nodes, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(q.all_started());
  EXPECT_EQ(q.backfills(), 0u);
}

TEST(JobQueue, ArrivalsAreGatedByTheClock) {
  JobQueue q({job("late", 1, 5.0)}, {2});
  EXPECT_TRUE(q.admit(0.0).empty());
  EXPECT_EQ(q.pending(), 0u);  // not yet arrived, not pending
  EXPECT_EQ(q.admit(5.0).size(), 1u);
}

TEST(JobQueue, SameSubmitTimeBreaksTiesBySubmissionIndex) {
  // Both arrive at t = 3 but only one node is free: the earlier
  // submission wins.
  JobQueue q({job("first", 1, 3.0), job("second", 1, 3.0)}, {1});
  const std::vector<JobStart> starts = q.admit(3.0);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].job, 0u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(JobQueue, ProbesIslandsInIndexOrder) {
  // Island 0 is too small for the wide job; the 1-node job prefers the
  // first island that fits it.
  JobQueue q({job("wide", 2, 0.0), job("narrow", 1, 0.0)}, {1, 4});
  const std::vector<JobStart> starts = q.admit(0.0);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].island, 1u);
  EXPECT_EQ(starts[1].island, 0u);
}

TEST(JobQueue, BackfillStartsLaterJobsPastABlockedHead) {
  // J0 takes 3 of 4 nodes; J1 wants all 4 (blocked); J2 wants 1 and
  // backfills around it.
  JobQueue q({job("j0", 3, 0.0), job("j1", 4, 0.0), job("j2", 1, 0.0)},
             {4});
  const std::vector<JobStart> starts = q.admit(0.0);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].job, 0u);
  EXPECT_EQ(starts[1].job, 2u);
  EXPECT_EQ(starts[1].local_nodes, (std::vector<std::size_t>{3}));
  EXPECT_EQ(q.backfills(), 1u);
  EXPECT_EQ(q.pending(), 1u);
  // Peak queue depth is sampled on arrival, before placement: all three
  // jobs were briefly queued at t = 0.
  EXPECT_EQ(q.peak_pending(), 3u);

  // Head cannot start until the whole island drains.
  q.release(0, {0, 1, 2});
  EXPECT_TRUE(q.admit(1.0).empty());
  q.release(0, {3});
  const std::vector<JobStart> head = q.admit(2.0);
  ASSERT_EQ(head.size(), 1u);
  EXPECT_EQ(head[0].job, 1u);
  EXPECT_EQ(head[0].local_nodes, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(q.all_started());
}

TEST(JobQueue, NoBackfillDegradesToStrictFifo) {
  JobQueue q({job("j0", 3, 0.0), job("j1", 4, 0.0), job("j2", 1, 0.0)},
             {4}, /*backfill=*/false);
  const std::vector<JobStart> starts = q.admit(0.0);
  ASSERT_EQ(starts.size(), 1u);  // only j0: j2 must wait behind j1
  EXPECT_EQ(starts[0].job, 0u);
  EXPECT_EQ(q.backfills(), 0u);
  EXPECT_EQ(q.pending(), 2u);

  q.release(0, {0, 1, 2});
  const std::vector<JobStart> rest = q.admit(1.0);
  ASSERT_EQ(rest.size(), 1u);  // j1 drains the island; j2 keeps waiting
  EXPECT_EQ(rest[0].job, 1u);
  q.release(0, {0, 1, 2, 3});
  const std::vector<JobStart> last = q.admit(2.0);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].job, 2u);
  EXPECT_TRUE(q.all_started());
}

TEST(JobQueue, ReleasedNodesAreReusedLowestFirst) {
  JobQueue q({job("a", 1, 0.0), job("b", 1, 0.0), job("c", 1, 1.0)}, {2});
  ASSERT_EQ(q.admit(0.0).size(), 2u);  // a -> node 0, b -> node 1
  q.release(0, {0});
  q.release(0, {1});
  EXPECT_EQ(q.free_nodes(0), 2u);
  const std::vector<JobStart> starts = q.admit(1.0);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].local_nodes, (std::vector<std::size_t>{0}));
}

// ---------------------------------------------------------------------
// FreeSet: the bitset free-node set must hand out exactly the nodes the
// old sorted-vector representation did.

/// The retired representation, kept verbatim as the oracle: a sorted
/// vector of free indices, allocation erases the lowest prefix, release
/// appends and re-sorts.
class VectorFreeSet {
 public:
  explicit VectorFreeSet(std::size_t size) : free_(size) {
    std::iota(free_.begin(), free_.end(), std::size_t{0});
  }
  std::size_t count() const { return free_.size(); }
  void take(std::size_t k, std::vector<std::size_t>& out) {
    out.insert(out.end(), free_.begin(),
               free_.begin() + static_cast<std::ptrdiff_t>(k));
    free_.erase(free_.begin(), free_.begin() + static_cast<std::ptrdiff_t>(k));
  }
  void put(const std::vector<std::size_t>& nodes) {
    free_.insert(free_.end(), nodes.begin(), nodes.end());
    std::sort(free_.begin(), free_.end());
  }

 private:
  std::vector<std::size_t> free_;
};

TEST(FreeSet, HandsOutLowestNodesAcrossWordBoundaries) {
  // 130 nodes spans three 64-bit words including a partial tail.
  FreeSet s(130);
  EXPECT_EQ(s.count(), 130u);
  std::vector<std::size_t> got;
  s.take(70, got);  // crosses the first word boundary
  ASSERT_EQ(got.size(), 70u);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(s.count(), 60u);

  // Free a low run; the next take must prefer it over the high tail.
  s.put({3, 1, 64});
  got.clear();
  s.take(4, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{1, 3, 64, 70}));
}

TEST(FreeSet, ChecksDoubleReleaseAndOverdraw) {
  FreeSet s(8);
  std::vector<std::size_t> got;
  s.take(8, got);
  EXPECT_THROW(s.take(1, got), common::InvariantError);
  s.put({2});
  EXPECT_THROW(s.put({2}), common::InvariantError);   // already free
  EXPECT_THROW(s.put({8}), common::InvariantError);   // past the island
}

TEST(FreeSet, MatchesVectorScanOnRandomisedChurn) {
  // Randomised take/put churn at several island sizes (word-aligned and
  // not): every allocation must match the old scan node-for-node.
  for (std::size_t size : {1u, 63u, 64u, 65u, 200u}) {
    std::mt19937_64 rng(0x9E3779B97F4A7C15ull ^ size);
    FreeSet bits(size);
    VectorFreeSet vec(size);
    std::vector<std::vector<std::size_t>> held;  // live allocations
    for (int step = 0; step < 2000; ++step) {
      const bool do_take =
          held.empty() || (bits.count() > 0 && (rng() & 1) != 0);
      if (do_take) {
        const std::size_t k = 1 + rng() % bits.count();
        std::vector<std::size_t> a, b;
        bits.take(k, a);
        vec.take(k, b);
        ASSERT_EQ(a, b) << "size " << size << " step " << step;
        held.push_back(std::move(a));
      } else {
        const std::size_t pick = rng() % held.size();
        std::swap(held[pick], held.back());
        bits.put(held.back());
        vec.put(held.back());
        held.pop_back();
      }
      ASSERT_EQ(bits.count(), vec.count());
    }
  }
}

TEST(JobQueue, MatchesOldScanOnRandomisedArrivalStreams) {
  // End-to-end oracle: drive a JobQueue (bitset free-sets) and a
  // shadow model built on VectorFreeSet through identical randomised
  // arrival/completion streams; every JobStart must match exactly.
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    std::mt19937_64 rng(seed);
    const std::vector<std::size_t> islands = {17, 64, 96};
    std::vector<FacilityJob> stream;
    for (int j = 0; j < 120; ++j) {
      stream.push_back(job(std::string("r").append(std::to_string(j)),
                           1 + rng() % 40, static_cast<double>(rng() % 50)));
    }
    JobQueue q(stream, islands);
    std::vector<VectorFreeSet> shadow;
    for (std::size_t s : islands) shadow.emplace_back(s);

    struct Running {
      std::size_t island;
      std::vector<std::size_t> nodes;
      double end_s;
    };
    std::vector<Running> running;
    for (double now = 0.0; !q.all_started() && now < 500.0; now += 1.0) {
      // Completions first, oldest node sets first — mirrors the round
      // loop's release-then-admit ordering.
      for (std::size_t r = 0; r < running.size();) {
        if (running[r].end_s <= now) {
          q.release(running[r].island, running[r].nodes);
          shadow[running[r].island].put(running[r].nodes);
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(r));
        } else {
          ++r;
        }
      }
      for (const JobStart& s : q.admit(now)) {
        // Replay the old first-fit probe against the shadow free lists.
        std::size_t island = islands.size();
        for (std::size_t i = 0; i < islands.size(); ++i) {
          if (shadow[i].count() >= stream[s.job].nodes) {
            island = i;
            break;
          }
        }
        ASSERT_EQ(s.island, island) << "seed " << seed;
        std::vector<std::size_t> expect;
        shadow[island].take(stream[s.job].nodes, expect);
        ASSERT_EQ(s.local_nodes, expect) << "seed " << seed;
        running.push_back({s.island, s.local_nodes,
                           now + 1.0 + static_cast<double>(rng() % 9)});
      }
    }
    EXPECT_TRUE(q.all_started()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ear::sim
