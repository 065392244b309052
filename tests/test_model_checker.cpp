// The model checker (src/analysis) on the shipped policy and on mutants.
//
// The mutant tests are the proof that the properties have teeth: each one
// wraps the *real* MinEnergyEufsPolicy behind the checker interface and
// corrupts exactly one aspect of its observable behaviour — a broken
// Fig. 2 transition table, a double IMC step, a missing guard revert —
// and the corresponding property must produce a counterexample. Two
// hand-written fakes do the same for the graph passes: a restart loop
// that only P1 catches and a P-state oscillation that only P4 catches.
// None of the mutants ship; they live here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/model_checker.hpp"
#include "analysis/signature_lattice.hpp"
#include "policies/min_energy_eufs.hpp"

namespace {

using namespace ear;
using analysis::Stage;
using policies::PolicyState;

// ----------------------------------------------------------------------
// Satellite: the legal-transition predicate against a literal Fig. 2
// transcription, all 16 (from, to) pairs.
// ----------------------------------------------------------------------

TEST(LegalTransition, MatchesFig2TableExhaustively) {
  // Rows: from; columns: to, in enum order CPU_FREQ_SEL, COMP_REF,
  // IMC_FREQ_SEL, STABLE. Forward edges exactly as drawn in Fig. 2 of
  // the paper; the first column is the restart edge (phase change or
  // failed validation), open from every stage.
  constexpr bool kFig2[4][4] = {
      /* CPU_FREQ_SEL */ {true, true, true, false},
      /* COMP_REF     */ {true, false, true, false},
      /* IMC_FREQ_SEL */ {true, false, false, true},
      /* STABLE       */ {true, false, false, false},
  };
  for (int from = 0; from < 4; ++from) {
    for (int to = 0; to < 4; ++to) {
      EXPECT_EQ(policies::MinEnergyEufsPolicy::legal_transition(
                    static_cast<Stage>(from), static_cast<Stage>(to)),
                kFig2[from][to])
          << analysis::stage_name(static_cast<Stage>(from)) << " -> "
          << analysis::stage_name(static_cast<Stage>(to));
    }
  }
}

// ----------------------------------------------------------------------
// Lattice basics.
// ----------------------------------------------------------------------

TEST(SignatureLattice, EnumerationIsDeterministicAndComplete) {
  const analysis::SignatureLattice lat(
      analysis::SignatureLattice::default_base(), analysis::LatticeAxes{});
  const analysis::LatticeAxes& ax = lat.axes();
  EXPECT_EQ(lat.size(), ax.cpi_mults.size() * ax.gbps_mults.size() *
                            ax.power_mults.size() * ax.vpi_levels.size() *
                            ax.imc_observed.size());
  for (std::size_t i = 0; i < lat.size(); ++i) {
    const metrics::Signature a = lat.at(i);
    const metrics::Signature b = lat.at(i);
    EXPECT_TRUE(a.valid);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.gbps, b.gbps);
    EXPECT_EQ(a.avg_imc_freq, b.avg_imc_freq);
    EXPECT_FALSE(lat.describe(i).empty());
  }
}

// ----------------------------------------------------------------------
// Checker scaffolding shared by the tests: a reduced lattice (the full
// default space is covered by the ear_model_* CTest entries) and a
// policy context with the analytic share model.
// ----------------------------------------------------------------------

analysis::SignatureLattice small_lattice() {
  analysis::LatticeAxes ax;
  ax.cpi_mults = {0.97, 1.00, 1.03, 1.20};
  ax.gbps_mults = {0.97, 1.00};
  ax.power_mults = {1.00};
  ax.vpi_levels = {0.0};
  ax.imc_observed = {common::Freq::ghz(2.0), common::Freq::ghz(2.4)};
  return {analysis::SignatureLattice::default_base(), ax};
}

policies::PolicyContext make_ctx(double compute_share = 0.5,
                                 double dyn_share = 0.5) {
  policies::PolicyContext ctx;
  ctx.pstates = simhw::PstateTable{};
  ctx.uncore = simhw::UncoreRange{};
  ctx.model =
      analysis::make_share_model(ctx.pstates, compute_share, dyn_share);
  return ctx;
}

analysis::CheckerOptions make_opts(const policies::PolicyContext& ctx) {
  analysis::CheckerOptions o;
  o.pstates = ctx.pstates;
  o.uncore = ctx.uncore;
  o.unc_policy_th = ctx.settings.unc_policy_th;
  o.sig_change_th = ctx.settings.sig_change_th;
  o.hw_guided = ctx.settings.hw_guided_imc;
  o.determinism_samples = 4;
  o.max_violations = 6;
  return o;
}

/// Base for the mutants: forwards everything to a real policy instance.
class MutantBase : public analysis::EufsInstance {
 public:
  explicit MutantBase(std::unique_ptr<analysis::EufsInstance> inner)
      : inner_(std::move(inner)) {}

  PolicyState apply(const metrics::Signature& sig,
                    policies::NodeFreqs& out) override {
    return inner_->apply(sig, out);
  }
  [[nodiscard]] bool validate(const metrics::Signature& sig) override {
    return inner_->validate(sig);
  }
  [[nodiscard]] Stage stage() const override { return inner_->stage(); }
  [[nodiscard]] simhw::Pstate current_pstate() const override {
    return inner_->current_pstate();
  }
  [[nodiscard]] const policies::ImcSearch& imc_search() const override {
    return inner_->imc_search();
  }
  [[nodiscard]] const metrics::Signature& stable_reference() const override {
    return inner_->stable_reference();
  }

 protected:
  std::unique_ptr<analysis::EufsInstance> inner_;
};

// ----------------------------------------------------------------------
// The shipped policy passes on the reduced lattice at any thread count,
// with identical digests.
// ----------------------------------------------------------------------

TEST(ModelChecker, ShippedPolicyHoldsAllProperties) {
  const policies::PolicyContext ctx = make_ctx();
  analysis::ModelChecker checker(
      [ctx] { return analysis::make_real_eufs(ctx); }, small_lattice(),
      make_opts(ctx));
  const analysis::CheckReport report = checker.run();
  for (const analysis::Violation& v : report.violations) {
    ADD_FAILURE() << checker.render_trace(v);
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.states, 10u);
  EXPECT_GT(report.max_depth, 3u);
  EXPECT_EQ(report.convergence_replays, report.states * small_lattice().size());
  EXPECT_GT(report.determinism_replays, 0u);
}

TEST(ModelChecker, DigestIsThreadCountInvariant) {
  const policies::PolicyContext ctx = make_ctx(0.1, 0.6);
  analysis::CheckerOptions serial = make_opts(ctx);
  serial.jobs = 1;
  analysis::CheckerOptions wide = make_opts(ctx);
  wide.jobs = 4;
  analysis::ModelChecker a([ctx] { return analysis::make_real_eufs(ctx); },
                           small_lattice(), serial);
  analysis::ModelChecker b([ctx] { return analysis::make_real_eufs(ctx); },
                           small_lattice(), wide);
  const analysis::CheckReport ra = a.run();
  const analysis::CheckReport rb = b.run();
  EXPECT_TRUE(ra.ok());
  EXPECT_TRUE(rb.ok());
  EXPECT_EQ(ra.states, rb.states);
  EXPECT_EQ(ra.transitions, rb.transitions);
  EXPECT_EQ(ra.digest, rb.digest);
}

TEST(ModelChecker, NgUConfigurationHolds) {
  policies::PolicyContext ctx = make_ctx();
  ctx.settings.hw_guided_imc = false;
  analysis::ModelChecker checker(
      [ctx] { return analysis::make_real_eufs(ctx); }, small_lattice(),
      make_opts(ctx));
  const analysis::CheckReport report = checker.run();
  for (const analysis::Violation& v : report.violations) {
    ADD_FAILURE() << checker.render_trace(v);
  }
  EXPECT_TRUE(report.ok());
}

// ----------------------------------------------------------------------
// Mutant 1: a broken transition table. The mutant lies about its stage:
// READY states report COMP_REF, so the settle edge becomes the illegal
// IMC_FREQ_SEL -> COMP_REF and P0 must produce a counterexample.
// ----------------------------------------------------------------------

class BrokenTableMutant final : public MutantBase {
 public:
  using MutantBase::MutantBase;

  [[nodiscard]] Stage stage() const override {
    const Stage s = inner_->stage();
    return s == Stage::kStable ? Stage::kCompRef : s;
  }
  [[nodiscard]] std::unique_ptr<analysis::EufsInstance> clone()
      const override {
    return std::make_unique<BrokenTableMutant>(inner_->clone());
  }
};

TEST(ModelChecker, BrokenTransitionTableYieldsCounterexample) {
  const policies::PolicyContext ctx = make_ctx();
  analysis::ModelChecker checker(
      [ctx] {
        return std::make_unique<BrokenTableMutant>(
            analysis::make_real_eufs(ctx));
      },
      small_lattice(), make_opts(ctx));
  const analysis::CheckReport report = checker.run();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const analysis::Violation& v : report.violations) {
    if (v.property == "P0.legal-edge") {
      found = true;
      ASSERT_FALSE(v.trace.empty());
      const std::string rendered = checker.render_trace(v);
      EXPECT_NE(rendered.find("P0.legal-edge"), std::string::npos);
      EXPECT_NE(rendered.find("IMC_FREQ_SEL"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << "expected a P0.legal-edge counterexample";
}

// ----------------------------------------------------------------------
// Mutant 2: double IMC step. Every continue decision is pushed one extra
// bin down — P2's single-grid-step discipline must catch it.
// ----------------------------------------------------------------------

class DoubleStepMutant final : public MutantBase {
 public:
  DoubleStepMutant(std::unique_ptr<analysis::EufsInstance> inner,
                   simhw::UncoreRange uncore)
      : MutantBase(std::move(inner)), uncore_(uncore) {}

  PolicyState apply(const metrics::Signature& sig,
                    policies::NodeFreqs& out) override {
    const Stage before = inner_->stage();
    const PolicyState verdict = inner_->apply(sig, out);
    if (before == Stage::kImcFreqSel && inner_->stage() == Stage::kImcFreqSel &&
        verdict == PolicyState::kContinue) {
      out.imc_max = uncore_.step_down(out.imc_max);
    }
    return verdict;
  }
  [[nodiscard]] std::unique_ptr<analysis::EufsInstance> clone()
      const override {
    return std::make_unique<DoubleStepMutant>(inner_->clone(), uncore_);
  }

 private:
  simhw::UncoreRange uncore_;
};

TEST(ModelChecker, DoubleImcStepYieldsCounterexample) {
  const policies::PolicyContext ctx = make_ctx();
  analysis::ModelChecker checker(
      [ctx] {
        return std::make_unique<DoubleStepMutant>(
            analysis::make_real_eufs(ctx), ctx.uncore);
      },
      small_lattice(), make_opts(ctx));
  const analysis::CheckReport report = checker.run();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const analysis::Violation& v : report.violations) {
    found = found || v.property == "P2.imc-step";
  }
  EXPECT_TRUE(found) << "expected a P2.imc-step counterexample";
}

// ----------------------------------------------------------------------
// Mutant 3: no revert on a guard breach. When the search finishes it
// keeps the aggressive trial instead of the last good setting — P3's
// revert-iff rule must catch it.
// ----------------------------------------------------------------------

class NoRevertMutant final : public MutantBase {
 public:
  using MutantBase::MutantBase;

  PolicyState apply(const metrics::Signature& sig,
                    policies::NodeFreqs& out) override {
    const Stage before = inner_->stage();
    const common::Freq aggressive = inner_->imc_search().current_trial();
    const PolicyState verdict = inner_->apply(sig, out);
    if (before == Stage::kImcFreqSel && verdict == PolicyState::kReady) {
      out.imc_max = aggressive;  // skip the revert
    }
    return verdict;
  }
  [[nodiscard]] std::unique_ptr<analysis::EufsInstance> clone()
      const override {
    return std::make_unique<NoRevertMutant>(inner_->clone());
  }
};

TEST(ModelChecker, MissingGuardRevertYieldsCounterexample) {
  const policies::PolicyContext ctx = make_ctx();
  analysis::ModelChecker checker(
      [ctx] {
        return std::make_unique<NoRevertMutant>(analysis::make_real_eufs(ctx));
      },
      small_lattice(), make_opts(ctx));
  const analysis::CheckReport report = checker.run();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const analysis::Violation& v : report.violations) {
    found = found || v.property == "P3.revert-iff";
  }
  EXPECT_TRUE(found) << "expected a P3.revert-iff counterexample";
}

// ----------------------------------------------------------------------
// Fakes for the graph passes: a stage and a P-state behind the checker
// interface, with the uncore window always open, so every edge passes
// the per-transition checks (P0, P2, P3) and only P1 or P4 can object.
// ----------------------------------------------------------------------

class FakeEufs : public analysis::EufsInstance {
 public:
  [[nodiscard]] bool validate(const metrics::Signature&) override {
    return true;
  }
  [[nodiscard]] Stage stage() const override { return stage_; }
  [[nodiscard]] simhw::Pstate current_pstate() const override {
    return pstate_;
  }
  [[nodiscard]] const policies::ImcSearch& imc_search() const override {
    return imc_;
  }
  [[nodiscard]] const metrics::Signature& stable_reference() const override {
    return ref_;
  }

 protected:
  PolicyState move(Stage stage, simhw::Pstate pstate, PolicyState verdict,
                   policies::NodeFreqs& out) {
    stage_ = stage;
    pstate_ = pstate;
    const simhw::UncoreRange uncore;
    out = {.cpu_pstate = pstate, .imc_max = uncore.max(),
           .imc_min = uncore.min()};
    return verdict;
  }

  Stage stage_ = Stage::kCpuFreqSel;
  simhw::Pstate pstate_ = 1;

 private:
  policies::ImcSearch imc_{simhw::UncoreRange{}, 0.02, true};
  metrics::Signature ref_{};
};

analysis::CheckReport check_fake(const analysis::InstanceFactory& factory,
                                 const std::string& property) {
  const policies::PolicyContext ctx = make_ctx();
  analysis::ModelChecker checker(factory, small_lattice(), make_opts(ctx));
  const analysis::CheckReport report = checker.run();
  EXPECT_FALSE(report.ok());
  for (const analysis::Violation& v : report.violations) {
    EXPECT_EQ(v.property, property) << checker.render_trace(v);
    EXPECT_FALSE(v.trace.empty());
    EXPECT_NE(checker.render_trace(v).find(property), std::string::npos);
  }
  return report;
}

// Restarts from COMP_REF to CPU_FREQ_SEL forever: every edge is legal and
// restarts are sanctioned loops, so only P1 sees that READY never comes.
class RestartLoopFake final : public FakeEufs {
 public:
  PolicyState apply(const metrics::Signature&,
                    policies::NodeFreqs& out) override {
    return move(stage_ == Stage::kCpuFreqSel ? Stage::kCompRef
                                             : Stage::kCpuFreqSel,
                pstate_, PolicyState::kContinue, out);
  }
  [[nodiscard]] std::unique_ptr<analysis::EufsInstance> clone()
      const override {
    return std::make_unique<RestartLoopFake>(*this);
  }
};

TEST(ModelChecker, RestartLoopYieldsConvergenceCounterexample) {
  const analysis::CheckReport report = check_fake(
      [] { return std::make_unique<RestartLoopFake>(); }, "P1.convergence");
  ASSERT_FALSE(report.violations.empty());
  // The path to the state, then the held input for the whole bound.
  const std::vector<analysis::TraceStep>& trace =
      report.violations.front().trace;
  EXPECT_GT(trace.size(), 8u);
  for (const analysis::TraceStep& t : trace) {
    EXPECT_EQ(t.verdict, PolicyState::kContinue);
  }
}

// Stays in COMP_REF and alternates between two P-states, claiming READY
// every time so P1 is satisfied: only P4 sees the cycle with no restart.
class OscillationFake final : public FakeEufs {
 public:
  PolicyState apply(const metrics::Signature&,
                    policies::NodeFreqs& out) override {
    return move(Stage::kCompRef, pstate_ == 3 ? 4 : 3, PolicyState::kReady,
                out);
  }
  [[nodiscard]] std::unique_ptr<analysis::EufsInstance> clone()
      const override {
    return std::make_unique<OscillationFake>(*this);
  }
};

TEST(ModelChecker, PstateOscillationYieldsLivelockCounterexample) {
  const analysis::CheckReport report = check_fake(
      [] { return std::make_unique<OscillationFake>(); }, "P4.no-livelock");
  // One counterexample per cycle entry, ending on the edge that closes it.
  ASSERT_EQ(report.violations.size(), 1u);
  const analysis::TraceStep& last = report.violations.front().trace.back();
  EXPECT_EQ(last.stage_before, Stage::kCompRef);
  EXPECT_EQ(last.stage_after, Stage::kCompRef);
}

}  // namespace
