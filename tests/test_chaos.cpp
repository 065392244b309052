// Chaos-mode acceptance tests: an unarmed fault layer is invisible, the
// fault timeline is deterministic, job-count-independent and
// independent of the thread that runs it, the policy matrix survives a
// multi-family plan with zero invariant violations, and a mid-run
// register lock degrades cleanly with a bounded time penalty.
#include "sim/chaos.hpp"

#include <cstddef>
#include <latch>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/presets.hpp"
#include "workload/catalog.hpp"

namespace ear::sim {
namespace {

std::shared_ptr<const faults::FaultPlan> parse_plan(const std::string& text) {
  std::istringstream in(text);
  return std::make_shared<const faults::FaultPlan>(
      faults::parse_fault_plan(in));
}

/// A plan with >= 4 stochastic fault families, sized so every policy
/// still completes (probabilities well below certainty).
std::shared_ptr<const faults::FaultPlan> mixed_plan() {
  return parse_plan(
      "[msr_drop]\nprobability = 0.2\n"
      "[snapshot_drop]\nprobability = 0.2\n"
      "[pmu_glitch]\nprobability = 0.2\nmagnitude = 0.3\n"
      "[inm_noise]\nprobability = 0.3\nmagnitude = 2000\n"
      "[node_dropout]\nnode = 1\nstart = 20\nend = 80\n");
}

TEST(Chaos, ArmedButInertPlanIsBitwiseInvisible) {
  // A null plan installs no hooks; a plan whose windows never open must
  // produce bit-identical results through the (armed) hook path.
  ExperimentConfig cfg{.app = workload::make_app("bqcd"),
                       .earl = settings_me_eufs(),
                       .seed = 3};
  const RunResult bare = run_experiment(cfg);
  cfg.fault_plan = parse_plan("[msr_drop]\nstart = 1e9\n");
  const RunResult armed = run_experiment(cfg);

  EXPECT_EQ(bare.total_time_s, armed.total_time_s);
  EXPECT_EQ(bare.total_energy_j, armed.total_energy_j);
  EXPECT_EQ(bare.avg_dc_power_w, armed.avg_dc_power_w);
  EXPECT_EQ(bare.avg_cpu_ghz, armed.avg_cpu_ghz);
  EXPECT_EQ(bare.avg_imc_ghz, armed.avg_imc_ghz);
  ASSERT_EQ(bare.nodes.size(), armed.nodes.size());
  for (std::size_t n = 0; n < bare.nodes.size(); ++n) {
    EXPECT_EQ(bare.nodes[n].msr_writes, armed.nodes[n].msr_writes);
    EXPECT_EQ(bare.nodes[n].signatures, armed.nodes[n].signatures);
  }
  EXPECT_EQ(armed.fault_report.injected(), 0u);
  EXPECT_TRUE(armed.fault_events.empty());
}

TEST(Chaos, FaultTimelineIsDeterministic) {
  ExperimentConfig cfg{.app = workload::make_app("bqcd"),
                       .earl = settings_me_eufs(),
                       .seed = 7};
  cfg.fault_plan = mixed_plan();
  const RunResult a = run_experiment(cfg);
  const RunResult b = run_experiment(cfg);
  EXPECT_GT(a.fault_report.injected(), 0u);
  EXPECT_TRUE(a.fault_report == b.fault_report);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
}

TEST(Chaos, RunIndependentOfCallingThread) {
  // No seed or draw may depend on which thread runs the experiment. The
  // worker-count test below cannot show that on its own: the crew may
  // hand every task to the calling thread. Here four threads, all live
  // at once (so their ids differ), run the config the test thread ran.
  ExperimentConfig cfg{.app = workload::make_app("bqcd"),
                       .earl = settings_me_eufs(),
                       .seed = 7};
  cfg.fault_plan = mixed_plan();
  const RunResult here = run_experiment(cfg);

  std::vector<RunResult> elsewhere(4);
  std::latch all_started(static_cast<std::ptrdiff_t>(elsewhere.size()));
  std::vector<std::thread> threads;
  for (RunResult& r : elsewhere) {
    threads.emplace_back([&cfg, &r, &all_started] {
      all_started.arrive_and_wait();
      r = run_experiment(cfg);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_GT(here.fault_report.injected(), 0u);
  for (const RunResult& r : elsewhere) {
    EXPECT_TRUE(here.fault_report == r.fault_report);
    EXPECT_EQ(here.fault_events, r.fault_events);
    EXPECT_EQ(here.total_time_s, r.total_time_s);
    EXPECT_EQ(here.total_energy_j, r.total_energy_j);
  }
}

TEST(Chaos, ReportIndependentOfWorkerThreadCount) {
  ChaosOptions opts;
  opts.app = "bqcd";
  opts.policies = {"min_energy_eufs", "min_energy"};
  opts.plan = mixed_plan();
  opts.seed = 11;
  opts.runs = 2;

  opts.jobs = 1;
  const ChaosReport serial = run_chaos(opts);
  opts.jobs = 4;
  const ChaosReport parallel = run_chaos(opts);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const ChaosPointReport& s = serial.points[i];
    const ChaosPointReport& p = parallel.points[i];
    EXPECT_EQ(s.clean.total_time_s, p.clean.total_time_s);
    EXPECT_EQ(s.faulted.total_time_s, p.faulted.total_time_s);
    EXPECT_EQ(s.faulted.total_energy_j, p.faulted.total_energy_j);
    EXPECT_TRUE(s.faulted.faults == p.faulted.faults);  // same timeline
    EXPECT_EQ(s.violations, p.violations);
  }
  EXPECT_TRUE(serial.totals == parallel.totals);
}

TEST(Chaos, PolicyMatrixSurvivesMixedPlanWithZeroViolations) {
  // The acceptance campaign: eUFS policies and their CPU-only baselines
  // under a plan spanning five fault families.
  ChaosOptions opts;
  opts.app = "bqcd";
  opts.policies = {"min_energy_eufs", "min_energy", "min_time",
                   "monitoring"};
  opts.plan = mixed_plan();
  opts.seed = 1;
  opts.runs = 2;
  opts.budget_w = 5000.0;  // arm EARGM so dropouts have a consumer
  ASSERT_GE(opts.plan->family_count(), 4u);

  const ChaosReport report = run_chaos(opts);
  for (const ChaosPointReport& p : report.points) {
    for (const std::string& v : p.violations) {
      ADD_FAILURE() << p.policy << ": " << v;
    }
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.totals.injected(), 0u);
  EXPECT_GT(report.totals.dropped_readings, 0u);   // EARGM saw dropouts
  EXPECT_EQ(report.totals.unsettled_nodes, 0u);    // settle-or-degrade
}

TEST(Chaos, MidRunLockDegradesWithBoundedPenalty) {
  // The degradation-ladder acceptance: a register lock lands while the
  // eUFS search is running. Every node must detect it (read-back), fall
  // back (HW-UFS then CPU-only policy), and finish within a bounded
  // penalty of the clean run.
  ExperimentConfig cfg{.app = workload::make_app("bqcd"),
                       .earl = settings_me_eufs(),
                       .seed = 5};
  const RunResult clean = run_experiment(cfg);
  cfg.fault_plan = parse_plan("[msr_lock]\nat = 20\n");
  const RunResult faulted = run_experiment(cfg);

  EXPECT_EQ(faulted.fault_report.msr_locks, faulted.nodes.size());
  EXPECT_GT(faulted.fault_report.verify_failures, 0u);   // detected
  EXPECT_GT(faulted.fault_report.reprobes, 0u);
  EXPECT_EQ(faulted.fault_report.fallbacks, faulted.nodes.size());
  for (const NodeResult& n : faulted.nodes) {
    EXPECT_TRUE(n.degraded);
    EXPECT_GT(n.signatures, 0u);  // the fallback kept producing
  }
  EXPECT_EQ(faulted.fault_report.unsettled_nodes, 0u);
  // Bounded penalty: losing the uncore search costs at most a modest
  // slowdown, nothing pathological.
  const double penalty_pct =
      (faulted.total_time_s / clean.total_time_s - 1.0) * 100.0;
  EXPECT_LT(penalty_pct, 25.0);
  EXPECT_GT(penalty_pct, -25.0);
}

TEST(Chaos, OptionsAreValidated) {
  ChaosOptions opts;  // no plan
  EXPECT_THROW((void)run_chaos(opts), common::InvariantError);
  opts.plan = mixed_plan();
  opts.policies.clear();
  EXPECT_THROW((void)run_chaos(opts), common::InvariantError);
  opts.policies = {"monitoring"};
  opts.runs = 0;
  EXPECT_THROW((void)run_chaos(opts), common::InvariantError);
}

}  // namespace
}  // namespace ear::sim
