// Facility-tier tests: the synthesized facility drains cleanly, results
// are bitwise-deterministic at any worker count, the federated cap
// throttles and degrades gracefully, island dropout/rejoin chaos
// leaves every invariant intact, and a facility too big for memory is
// refused up front.
#include "sim/facility.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace ear::sim {
namespace {

TEST(Facility, SyntheticFacilityDrainsClean) {
  const FacilityConfig cfg = make_facility_config(8, 2, 6, 3);
  const FacilityResult r = run_facility(cfg);
  EXPECT_TRUE(r.violations.empty()) << (r.violations.empty()
                                            ? ""
                                            : r.violations.front());
  ASSERT_EQ(r.jobs.size(), 6u);
  ASSERT_EQ(r.islands.size(), 2u);
  for (const FacilityJobOutcome& j : r.jobs) {
    EXPECT_GE(j.start_s, j.submit_s) << j.name;
    EXPECT_GT(j.end_s, j.start_s) << j.name;
    EXPECT_TRUE(std::isfinite(j.energy_j)) << j.name;
    EXPECT_GT(j.energy_j, 0.0) << j.name;
    EXPECT_LE(j.end_s, r.makespan_s);
  }
  EXPECT_GT(r.rounds, 0u);
  EXPECT_GT(r.facility_energy_j, 0.0);
  EXPECT_GT(r.peak_power_w, 0.0);
  EXPECT_GE(r.mean_turnaround_s(), r.mean_wait_s());
  double island_energy = 0.0;
  for (const FacilityIslandOutcome& i : r.islands) {
    EXPECT_GT(i.nodes, 0u);
    EXPECT_GT(i.energy_j, 0.0);
    island_energy += i.energy_j;
  }
  EXPECT_NEAR(island_energy, r.facility_energy_j,
              1e-6 * r.facility_energy_j);
}

void expect_bitwise_across_worker_counts(std::size_t nodes) {
  // Chaos included on purpose: the fault stream must not depend on the
  // worker count either.
  FacilityConfig cfg = make_facility_config(nodes, 2, 10, 5);
  cfg.fault_plan.specs.push_back(
      {.family = faults::FaultFamily::kNodeDropout,
       .node = 1,
       .start_s = 1.0,
       .end_s = 6.0,
       .probability = 0.7});
  cfg.fault_plan.specs.push_back(
      {.family = faults::FaultFamily::kIslandDropout,
       .island = 1,
       .start_s = 2.0,
       .end_s = 8.0});

  FacilityResult base{};
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{8}}) {
    cfg.sim_jobs = jobs;
    const FacilityResult r = run_facility(cfg);
    if (jobs == 1) {
      base = r;
      continue;
    }
    // Bitwise equality: any cross-thread reduction-order leak shows up
    // as a ULP difference here.
    EXPECT_EQ(r.makespan_s, base.makespan_s)
        << nodes << " nodes, " << jobs << " workers";
    EXPECT_EQ(r.facility_energy_j, base.facility_energy_j);
    EXPECT_EQ(r.peak_power_w, base.peak_power_w);
    EXPECT_EQ(r.worst_overrun_w, base.worst_overrun_w);
    EXPECT_EQ(r.rounds, base.rounds);
    EXPECT_EQ(r.cap_overrun_rounds, base.cap_overrun_rounds);
    EXPECT_EQ(r.redistributions, base.redistributions);
    EXPECT_TRUE(r.faults == base.faults);
    ASSERT_EQ(r.jobs.size(), base.jobs.size());
    for (std::size_t i = 0; i < r.jobs.size(); ++i) {
      EXPECT_EQ(r.jobs[i].start_s, base.jobs[i].start_s);
      EXPECT_EQ(r.jobs[i].end_s, base.jobs[i].end_s);
      EXPECT_EQ(r.jobs[i].energy_j, base.jobs[i].energy_j);
    }
  }
}

TEST(Facility, BitwiseDeterministicAcrossWorkerCounts) {
  // The event core's crew claims one chunk of up to 128 nodes per
  // island: 16 nodes over 2 islands and 64 over 2 both make 2 chunks,
  // so each input advances on two threads and TSan sees any write to
  // shared state from inside that loop.
  expect_bitwise_across_worker_counts(16);
  expect_bitwise_across_worker_counts(64);
}

TEST(Facility, TightCapThrottlesWithinDocumentedSlack) {
  FacilityConfig cfg = make_facility_config(8, 2, 6, 7);
  cfg.budget = {8 * 200.0};  // binds between idle floor and busy draw
  const FacilityResult r = run_facility(cfg);
  EXPECT_TRUE(r.violations.empty()) << (r.violations.empty()
                                            ? ""
                                            : r.violations.front());
  std::size_t throttles = 0;
  for (const FacilityIslandOutcome& i : r.islands) {
    throttles += i.throttles;
    EXPECT_GT(i.final_budget_w, 0.0);
  }
  EXPECT_GT(throttles, 0u);
  EXPECT_GT(r.redistributions, 0u);
}

TEST(Facility, UncappedFacilityNeverThrottles) {
  FacilityConfig cfg = make_facility_config(8, 2, 6, 7);
  cfg.budget = {0.0};  // federation disabled
  const FacilityResult r = run_facility(cfg);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_DOUBLE_EQ(r.budget_w, 0.0);
  EXPECT_EQ(r.redistributions, 0u);
  EXPECT_EQ(r.cap_overrun_rounds, 0u);
  for (const FacilityIslandOutcome& i : r.islands) {
    EXPECT_EQ(i.throttles, 0u);
    EXPECT_EQ(i.final_limit, 0u);
    EXPECT_DOUBLE_EQ(i.final_budget_w, 0.0);
  }
}

TEST(Facility, IslandDropoutRejoinUnderCapDegradesGracefully) {
  FacilityConfig cfg = make_facility_config(16, 2, 12, 11);
  cfg.budget = {16 * 200.0};
  // Island 1 goes dark mid-run, then rejoins; a flaky node flaps too.
  cfg.fault_plan.specs.push_back(
      {.family = faults::FaultFamily::kIslandDropout,
       .island = 1,
       .start_s = 2.0,
       .end_s = 10.0});
  cfg.fault_plan.specs.push_back(
      {.family = faults::FaultFamily::kNodeDropout,
       .node = 2,
       .start_s = 1.0,
       .end_s = 12.0,
       .probability = 0.6});
  const FacilityResult r = run_facility(cfg);

  // Graceful degradation: the chaos is visible in the accounting but no
  // invariant broke — no crash, no NaN, no persistent overrun beyond the
  // documented slack, and the facility still drained.
  EXPECT_TRUE(r.violations.empty()) << (r.violations.empty()
                                            ? ""
                                            : r.violations.front());
  EXPECT_GT(r.faults.island_dropouts, 0u);
  EXPECT_GT(r.faults.missed_readings, 0u);
  EXPECT_EQ(r.jobs.size(), 12u);

  // Rejoin: the dark island's nodes resumed reporting, and the blind
  // rounds were held rather than acted on.
  std::size_t resumed = 0;
  std::size_t blind = 0;
  for (const FacilityIslandOutcome& i : r.islands) {
    resumed += i.resumed_nodes;
    blind += i.blind_rounds;
  }
  EXPECT_GT(resumed, 0u);
  EXPECT_GT(blind, 0u);
}

TEST(Facility, ConfigSynthesizerScalesAndIsSeeded) {
  const FacilityConfig a = make_facility_config(30, 3, 9, 1);
  ASSERT_EQ(a.islands.size(), 3u);
  std::size_t total = 0;
  for (const FacilityIsland& i : a.islands) total += i.nodes;
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(a.jobs.size(), 9u);
  // Arrival stream is sorted enough to admit in order and seeded: a
  // different seed jitters the stream.
  const FacilityConfig b = make_facility_config(30, 3, 9, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].submit_s != b.jobs[i].submit_s) any_diff = true;
    EXPECT_LE(a.jobs[i].nodes, 30u / 3u);
  }
  EXPECT_TRUE(any_diff);
}

// A facility that cannot fit is refused with its estimate and the limit,
// before anything is allocated per node (a 10^12-node build would
// otherwise run into the OOM killer). Node counts that overflow when
// summed are refused the same way.
TEST(Facility, RefusesAFacilityThatCannotFitInMemory) {
  FacilityConfig cfg;
  cfg.islands.push_back(FacilityIsland{
      .node_config = simhw::make_skylake_6148_node(),
      .nodes = 1'000'000'000'000});
  try {
    (void)run_facility(cfg);
    FAIL() << "a 10^12-node facility was not refused";
  } catch (const common::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("facility of 1000000000000 nodes needs an "
                        "estimated "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("GB memory limit"), std::string::npos) << what;
  }

  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  cfg.islands.push_back(cfg.islands.front());
  cfg.islands[0].nodes = kMax;
  cfg.islands[1].nodes = kMax;
  EXPECT_THROW((void)run_facility(cfg), common::ConfigError);
}

}  // namespace
}  // namespace ear::sim
