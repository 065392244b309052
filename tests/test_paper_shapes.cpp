// The paper's shape claims that the HW UFS governor feeds, pinned as
// assertions so a change to the governor or the iteration path cannot
// move them silently. Each runs like `ear_paper` does: seed 1234, three
// runs averaged (bench/paper.hpp). Every value is pinned within a
// per-unit tolerance by tests/golden/paper.json (the paper_golden
// test); these check the shapes, some more tightly than the golden
// tolerances (Table I's IMC must stay in [2.38, 2.40)).
#include <gtest/gtest.h>

#include <string>

#include "sim/presets.hpp"
#include "sim/runner.hpp"
#include "workload/catalog.hpp"

namespace ear::sim {
namespace {

AveragedResult run(const std::string& app,
                   const earl::EarlSettings& settings) {
  return run_averaged(ExperimentConfig{.app = workload::make_app(app),
                                       .earl = settings,
                                       .seed = 1234},
                      3);
}

TEST(PaperShapes, TableIHardwareHoldsImcJustBelowTheLimit) {
  // BT-MZ.C and LU.D read 2.39 GHz against a 2.40 limit under ME: the
  // HW loop hunts one bin below its setpoint. A closed dither gate
  // would read exactly 2.40.
  for (const char* app : {"bt-mz.c.mpi", "lu.d"}) {
    const double imc = run(app, settings_me(0.05)).avg_imc_ghz;
    EXPECT_GE(imc, 2.38) << app;
    EXPECT_LT(imc, 2.40) << app;
  }
}

TEST(PaperShapes, TableVIIPackageSavingExceedsNodeSaving) {
  for (const char* app : {"bqcd", "bt-mz.d", "gromacs-ii", "hpcg", "pop",
                          "dumses", "afid"}) {
    const Comparison c = compare(run(app, settings_no_policy()),
                                 run(app, settings_me_eufs(0.05, 0.02)));
    EXPECT_GT(c.pck_power_saving_pct, c.power_saving_pct) << app;
  }
}

TEST(PaperShapes, TableIIIOnlyExplicitUfsSavesOnOpenMpKernels) {
  for (const char* app : {"bt-mz.c.omp", "sp-mz.c.omp"}) {
    const AveragedResult ref = run(app, settings_no_policy());
    const Comparison me = compare(ref, run(app, settings_me(0.05)));
    const Comparison eu = compare(ref, run(app, settings_me_eufs(0.05, 0.02)));
    EXPECT_NEAR(me.energy_saving_pct, 0.0, 1.0) << app;
    EXPECT_GE(eu.energy_saving_pct, 2.0) << app;
  }
}

TEST(PaperShapes, Fig3BqcdPowerSavingGrowsFasterThanPenalty) {
  const AveragedResult ref = run("bqcd", settings_no_policy());
  double previous = -1.0;
  for (const double unc : {0.01, 0.02, 0.03}) {
    const Comparison c = compare(ref, run("bqcd", settings_me_eufs(0.03, unc)));
    EXPECT_GT(c.power_saving_pct, previous) << "unc_policy_th " << unc;
    EXPECT_GT(c.power_saving_pct, c.time_penalty_pct)
        << "unc_policy_th " << unc;
    previous = c.power_saving_pct;
  }
}

}  // namespace
}  // namespace ear::sim
