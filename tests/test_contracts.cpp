// The contract layer itself, plus negative tests proving the contracts
// wired into simhw/policies/metrics actually fire.
#include "common/contracts.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "metrics/accumulator.hpp"
#include "policies/imc_search.hpp"
#include "policies/min_energy_eufs.hpp"
#include "simhw/msr.hpp"

namespace ear {
namespace {

using common::ContractViolation;
using common::Freq;

TEST(Contracts, MacrosFireWithViolationKind) {
  EXPECT_THROW(EAR_EXPECT(1 == 2), ContractViolation);
  EXPECT_THROW(EAR_ENSURE_MSG(false, "broken"), ContractViolation);
  EXPECT_THROW(EAR_INVARIANT(0 > 1), ContractViolation);
  try {
    EAR_EXPECT_MSG(2 + 2 == 5, "arithmetic still works");
    FAIL() << "contract did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("arithmetic still works"),
              std::string::npos);
  }
}

TEST(Contracts, PassingConditionsAreSilent) {
  EXPECT_NO_THROW(EAR_EXPECT(1 == 1));
  EXPECT_NO_THROW(EAR_ENSURE(true));
  EXPECT_NO_THROW(EAR_INVARIANT_MSG(2 + 2 == 4, "fine"));
}

TEST(Contracts, UnreachableIsActiveInEveryBuild) {
  EXPECT_THROW(EAR_UNREACHABLE("must not get here"), ContractViolation);
}

TEST(Contracts, ViolationIsAnInvariantError) {
  // Pre-contract callers catch InvariantError; the new exception must
  // keep flowing into those handlers.
  EXPECT_THROW(EAR_EXPECT(false), common::InvariantError);
}

// ---------------------------------------------------------------------
// Contracts wired into the layers.
// ---------------------------------------------------------------------

TEST(ContractsFire, FreqSubtractionUnderflow) {
  const Freq small = Freq::mhz(100);
  const Freq big = Freq::ghz(1.0);
  EXPECT_THROW((void)(small - big), ContractViolation);
  EXPECT_EQ(big - small, Freq::mhz(900));  // in-range stays exact
}

TEST(ContractsFire, InvalidMsrWriteRejected) {
  simhw::MsrFile msr;
  // Reserved bit 7 set in UNCORE_RATIO_LIMIT.
  EXPECT_THROW(msr.write(simhw::kMsrUncoreRatioLimit, 1ull << 7),
               ContractViolation);
  // Reserved high bits set.
  EXPECT_THROW(msr.write(simhw::kMsrUncoreRatioLimit, 1ull << 15),
               ContractViolation);
  // ENERGY_PERF_BIAS is a 4-bit hint.
  EXPECT_THROW(msr.write(simhw::kMsrEnergyPerfBias, 16), ContractViolation);
  EXPECT_NO_THROW(msr.write(simhw::kMsrEnergyPerfBias, 15));
}

TEST(ContractsFire, ImcSearchStepBeforeStart) {
  policies::ImcSearch search(simhw::UncoreRange{}, 0.02, true);
  metrics::Signature sig;
  sig.valid = true;
  EXPECT_THROW((void)search.step(sig), ContractViolation);
}

TEST(ContractsFire, ImcSearchRejectsInvalidReference) {
  policies::ImcSearch search(simhw::UncoreRange{}, 0.02, true);
  const metrics::Signature invalid;  // valid = false
  EXPECT_THROW((void)search.start(invalid), ContractViolation);
}

TEST(ContractsFire, SignatureMetricsMustBeSane) {
  // A counter delta that runs backwards (cycles shrink while
  // instructions grow) would publish a negative CPI. Retrograde counters
  // are a sensor fault, not a programming error: the window is rejected
  // with a reason instead of tearing the session down.
  metrics::Snapshot begin;
  begin.pmu.cycles = 200.0;
  metrics::Snapshot end;
  end.pmu.cycles = 100.0;
  end.pmu.instructions = 100.0;
  end.inm_joules = 1000;
  end.clock_s = 10.0;
  metrics::WindowReject why = metrics::WindowReject::kNone;
  const metrics::Signature sig = metrics::compute_signature(begin, end, 5, &why);
  EXPECT_FALSE(sig.valid);
  EXPECT_EQ(why, metrics::WindowReject::kRetrograde);
  // The reject pointer is optional; the legacy call shape still works.
  EXPECT_FALSE(metrics::compute_signature(begin, end, 5).valid);
}

TEST(EufsStateMachine, LegalTransitionTable) {
  using Policy = policies::MinEnergyEufsPolicy;
  using Stage = Policy::Stage;
  // Restart edge: every stage may fall back to CPU_FREQ_SEL.
  for (Stage from : {Stage::kCpuFreqSel, Stage::kCompRef, Stage::kImcFreqSel,
                     Stage::kStable}) {
    EXPECT_TRUE(Policy::legal_transition(from, Stage::kCpuFreqSel));
  }
  // Fig. 2's forward edges.
  EXPECT_TRUE(Policy::legal_transition(Stage::kCpuFreqSel, Stage::kCompRef));
  EXPECT_TRUE(
      Policy::legal_transition(Stage::kCpuFreqSel, Stage::kImcFreqSel));
  EXPECT_TRUE(Policy::legal_transition(Stage::kCompRef, Stage::kImcFreqSel));
  EXPECT_TRUE(Policy::legal_transition(Stage::kImcFreqSel, Stage::kStable));
  // Everything else is illegal: no skipping the reference measurement,
  // no re-entering the search from STABLE without a restart.
  EXPECT_FALSE(Policy::legal_transition(Stage::kCpuFreqSel, Stage::kStable));
  EXPECT_FALSE(Policy::legal_transition(Stage::kCompRef, Stage::kStable));
  EXPECT_FALSE(Policy::legal_transition(Stage::kCompRef, Stage::kCompRef));
  EXPECT_FALSE(
      Policy::legal_transition(Stage::kImcFreqSel, Stage::kCompRef));
  EXPECT_FALSE(
      Policy::legal_transition(Stage::kImcFreqSel, Stage::kImcFreqSel));
  EXPECT_FALSE(Policy::legal_transition(Stage::kStable, Stage::kCompRef));
  EXPECT_FALSE(Policy::legal_transition(Stage::kStable, Stage::kImcFreqSel));
  EXPECT_FALSE(Policy::legal_transition(Stage::kStable, Stage::kStable));
}

}  // namespace
}  // namespace ear
