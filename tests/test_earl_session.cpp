// EARL session tests: loop detection -> signature windows -> the
// NODE_POLICY / VALIDATE_POLICY state machine of the paper's Code 1,
// driven against a real simulated node.
#include "earl/session.hpp"

#include <bit>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dynais/dynais.hpp"
#include "earl/library.hpp"
#include "sim/experiment.hpp"
#include "workload/catalog.hpp"
#include "workload/synthetic.hpp"

namespace ear::earl {
namespace {

struct Fixture {
  explicit Fixture(const std::string& policy, bool is_mpi = true,
                   workload::AppModel app_in = workload::make_app("bt-mz.d"))
      : app(std::move(app_in)),
        node(app.node_config, 11,
             simhw::NoiseModel{.time_sigma = 0, .power_sigma = 0}),
        daemon(node) {
    EarlSettings settings;
    settings.policy = policy;
    EarLibrary library(app.node_config, settings,
                       sim::cached_models(app.node_config));
    session = library.attach(daemon, is_mpi);
  }

  /// Run `n` application iterations, feeding the session.
  void run(std::size_t n, bool is_mpi = true) {
    const auto& phase = app.phases.front();
    for (std::size_t i = 0; i < n; ++i) {
      node.execute_iteration(phase.demand);
      if (is_mpi) {
        session->on_mpi_calls(phase.mpi_pattern);
      } else {
        session->on_time_tick();
      }
    }
  }

  workload::AppModel app;
  simhw::SimNode node;
  eard::NodeDaemon daemon;
  std::unique_ptr<EarlSession> session;
};

TEST(EarlSession, AppliesPolicyDefaultOnAttach) {
  Fixture f("min_energy_eufs");
  EXPECT_EQ(f.node.cpu_pstate(), 1u);  // nominal
  EXPECT_EQ(f.node.uncore_limit().max_freq, common::Freq::ghz(2.4));
  EXPECT_EQ(f.session->state(), EarlSession::State::kNoLoop);
}

TEST(EarlSession, DetectsLoopAndComputesSignatures) {
  Fixture f("monitoring");
  f.run(20);
  EXPECT_GT(f.session->signatures_computed(), 0u);
  const auto& sig = f.session->last_signature();
  EXPECT_TRUE(sig.valid);
  EXPECT_NEAR(sig.cpi, 0.38, 0.02);
  EXPECT_NEAR(sig.gbps, 6.6, 0.3);
}

TEST(EarlSession, SignatureWindowRespectsInterval) {
  Fixture f("monitoring");
  f.run(40);  // ~75 s of simulated time at 1.86 s/iter
  // 10 s minimum window at 1.86 s/iter = 6 iterations per signature;
  // with detection warm-up, that allows at most ~6 signatures.
  EXPECT_GE(f.session->signatures_computed(), 4u);
  EXPECT_LE(f.session->signatures_computed(), 7u);
  EXPECT_GE(f.session->last_signature().elapsed_s, 10.0);
}

TEST(EarlSession, EufsPolicyLowersUncoreWindow) {
  Fixture f("min_energy_eufs");
  f.run(120);
  // BT-MZ.D is CPU-bound: nominal CPU, but the IMC window must have been
  // lowered by the explicit search (paper Table VI: 2.39 -> ~1.8).
  EXPECT_EQ(f.node.cpu_pstate(), 1u);
  EXPECT_LT(f.node.uncore_limit().max_freq, common::Freq::ghz(2.1));
  EXPECT_EQ(f.node.uncore_limit().min_freq, common::Freq::ghz(1.2));
  EXPECT_EQ(f.session->state(), EarlSession::State::kValidatePolicy);
}

TEST(EarlSession, MonitoringLeavesEverythingAlone) {
  Fixture f("monitoring");
  f.run(60);
  EXPECT_EQ(f.node.cpu_pstate(), 1u);
  EXPECT_EQ(f.node.uncore_limit().max_freq, common::Freq::ghz(2.4));
}

TEST(EarlSession, TimeGuidedModeForNonMpi) {
  Fixture f("min_energy_eufs", /*is_mpi=*/false,
            workload::make_app("bt-mz.c.omp"));
  f.run(80, /*is_mpi=*/false);
  EXPECT_GT(f.session->signatures_computed(), 0u);
  // The OpenMP kernel is also CPU-bound with a reducible uncore.
  EXPECT_LT(f.node.uncore_limit().max_freq, common::Freq::ghz(2.3));
}

TEST(EarlSession, MpiEventsOnTimeGuidedSessionThrow) {
  Fixture f("monitoring", /*is_mpi=*/false,
            workload::make_app("bt-mz.c.omp"));
  EXPECT_THROW(f.session->on_mpi_call(1), common::InvariantError);
}

TEST(EarlSession, TimeTickOnMpiSessionThrows) {
  Fixture f("monitoring");
  EXPECT_THROW(f.session->on_time_tick(), common::InvariantError);
}

TEST(EarlSession, PhaseChangeRevalidates) {
  // Two-phase synthetic app: the session must detect the signature change
  // and re-run the policy for the second phase.
  const auto cfg = simhw::make_skylake_6148_node();
  workload::AppModel app = workload::make_phase_change_app(cfg, 60);
  Fixture f("min_energy_eufs", true, app);

  const auto& p0 = app.phases[0];
  const auto& p1 = app.phases[1];
  for (std::size_t i = 0; i < p0.iterations; ++i) {
    f.node.execute_iteration(p0.demand);
    f.session->on_mpi_calls(p0.mpi_pattern);
  }
  const auto sig_phase0 = f.session->last_signature();
  for (std::size_t i = 0; i < p1.iterations; ++i) {
    f.node.execute_iteration(p1.demand);
    f.session->on_mpi_calls(p1.mpi_pattern);
  }
  const auto sig_phase1 = f.session->last_signature();
  // The memory phase has a very different signature...
  EXPECT_TRUE(metrics::signature_changed(sig_phase0, sig_phase1));
  // ...and the session kept producing signatures across the transition.
  EXPECT_GT(f.session->signatures_computed(), 8u);
}

/// Counts the snapshots it serves and passes each one through untouched.
struct CountingFilter final : eard::SnapshotFilter {
  std::size_t calls = 0;
  metrics::Snapshot filter(const metrics::Snapshot& clean) override {
    ++calls;
    return clean;
  }
};

// Unfiltered, EARL reads the node clock before it asks for a snapshot. A
// filter draws from its fault stream on every call, so a filtered daemon
// must still serve exactly one snapshot per iteration the session sees:
// one per time tick in time-guided mode, one per DynAIS loop or iteration
// event in MPI mode. The filter changes nothing, so the filtered session
// decides exactly as an unfiltered one.
TEST(EarlSession, FilteredDaemonServesOneSnapshotPerIteration) {
  for (const bool is_mpi : {true, false}) {
    const workload::AppModel app =
        workload::make_app(is_mpi ? "bt-mz.d" : "bt-mz.c.omp");
    Fixture filtered("min_energy_eufs", is_mpi, app);
    Fixture plain("min_energy_eufs", is_mpi, app);
    CountingFilter counter;
    filtered.daemon.set_snapshot_filter(&counter);
    dynais::Dynais detector(EarlSettings{}.dynais);
    std::size_t expected = 0;
    const auto& phase = app.phases.front();
    for (int i = 0; i < 80; ++i) {
      for (Fixture* f : {&filtered, &plain}) {
        (void)f->node.execute_iteration(phase.demand);
        if (is_mpi) {
          f->session->on_mpi_calls(phase.mpi_pattern);
        } else {
          f->session->on_time_tick();
        }
      }
      if (!is_mpi) {
        ++expected;
        continue;
      }
      for (const std::uint32_t e : phase.mpi_pattern) {
        const dynais::Status st = detector.push(e).status;
        if (st == dynais::Status::kNewLoop ||
            st == dynais::Status::kNewIteration) {
          ++expected;
        }
      }
    }
    EXPECT_EQ(counter.calls, expected) << (is_mpi ? "MPI" : "time-guided");
    EXPECT_GT(expected, 40u);
    filtered.daemon.set_snapshot_filter(nullptr);
    ASSERT_GT(plain.session->signatures_computed(), 2u);
    EXPECT_EQ(filtered.session->signatures_computed(),
              plain.session->signatures_computed());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  filtered.session->last_signature().dc_power_w),
              std::bit_cast<std::uint64_t>(
                  plain.session->last_signature().dc_power_w));
    EXPECT_EQ(filtered.node.uncore_limit().max_freq,
              plain.node.uncore_limit().max_freq);
  }
}

}  // namespace
}  // namespace ear::earl
