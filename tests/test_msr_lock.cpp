// BIOS-locked UNCORE_RATIO_LIMIT: some platforms lock MSR 0x620 and
// silently drop writes. The daemon must detect it, and EARL must degrade
// explicit-UFS policies to their CPU-only fallbacks instead of running a
// search whose MSR writes do nothing.
#include <gtest/gtest.h>

#include "earl/library.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "workload/catalog.hpp"

namespace ear {
namespace {

using common::Freq;

TEST(MsrLock, WritesSilentlyDropped) {
  // Whichever register is locked (either inline one, or an unmodelled
  // one), its writes are dropped yet still counted, and the other
  // registers keep working.
  constexpr std::uint32_t kOther = 0x123;
  for (const std::uint32_t locked :
       {simhw::kMsrUncoreRatioLimit, simhw::kMsrEnergyPerfBias, kOther}) {
    simhw::MsrFile msr;
    msr.set_uncore_limit({.max_freq = Freq::ghz(2.4),
                          .min_freq = Freq::ghz(1.2)});
    msr.write(simhw::kMsrEnergyPerfBias, 4);
    msr.write(kOther, 9);
    msr.lock(locked);
    EXPECT_TRUE(msr.is_locked(locked));
    msr.set_uncore_limit({.max_freq = Freq::ghz(1.5),
                          .min_freq = Freq::ghz(1.5)});
    msr.write(simhw::kMsrEnergyPerfBias, 8);
    msr.write(kOther, 10);
    EXPECT_EQ(msr.write_count(), 6u) << "MSR " << locked;
    EXPECT_EQ(msr.uncore_limit().max_freq,
              locked == simhw::kMsrUncoreRatioLimit ? Freq::ghz(2.4)
                                                    : Freq::ghz(1.5));
    EXPECT_EQ(msr.read(simhw::kMsrEnergyPerfBias),
              locked == simhw::kMsrEnergyPerfBias ? 4u : 8u);
    EXPECT_EQ(msr.read(kOther), locked == kOther ? 9u : 10u);
  }
  // Locking a register never written keeps it reading 0.
  simhw::MsrFile msr;
  msr.lock(kOther);
  msr.write(kOther, 5);
  EXPECT_EQ(msr.read(kOther), 0u);
  EXPECT_FALSE(msr.is_locked(simhw::kMsrUncoreRatioLimit));
}

TEST(MsrLock, DaemonProbeDetectsLock) {
  simhw::SimNode node(simhw::make_skylake_6148_node(), 1);
  eard::NodeDaemon open_daemon(node);
  EXPECT_TRUE(open_daemon.uncore_writable());

  simhw::SimNode locked_node(simhw::make_skylake_6148_node(), 1);
  for (std::size_t s = 0; s < locked_node.config().sockets; ++s) {
    locked_node.msr(s).lock(simhw::kMsrUncoreRatioLimit);
  }
  eard::NodeDaemon locked_daemon(locked_node);
  EXPECT_FALSE(locked_daemon.uncore_writable());
}

TEST(MsrLock, ProbeRestoresOriginalWindow) {
  simhw::SimNode node(simhw::make_skylake_6148_node(), 1);
  node.set_uncore_limit_all({.max_freq = Freq::ghz(2.0),
                             .min_freq = Freq::ghz(1.4)});
  eard::NodeDaemon daemon(node);
  ASSERT_TRUE(daemon.uncore_writable());
  EXPECT_EQ(node.uncore_limit().max_freq, Freq::ghz(2.0));
  EXPECT_EQ(node.uncore_limit().min_freq, Freq::ghz(1.4));
}

TEST(MsrLock, EarlDegradesEufsToMinEnergy) {
  const workload::AppModel app = workload::make_app("bt-mz.d");
  simhw::SimNode node(app.node_config, 5);
  for (std::size_t s = 0; s < node.config().sockets; ++s) {
    node.msr(s).lock(simhw::kMsrUncoreRatioLimit);
  }
  eard::NodeDaemon daemon(node);
  earl::EarLibrary library(app.node_config, sim::settings_me_eufs(0.05, 0.02),
                           sim::cached_models(app.node_config));
  const auto session = library.attach(daemon, app.is_mpi);
  EXPECT_EQ(session->policy().name(), "min_energy");
}

TEST(MsrLock, UnlockedPlatformKeepsEufs) {
  const workload::AppModel app = workload::make_app("bt-mz.d");
  simhw::SimNode node(app.node_config, 5);
  eard::NodeDaemon daemon(node);
  earl::EarLibrary library(app.node_config, sim::settings_me_eufs(0.05, 0.02),
                           sim::cached_models(app.node_config));
  const auto session = library.attach(daemon, app.is_mpi);
  EXPECT_EQ(session->policy().name(), "min_energy_eufs");
}

TEST(MsrLock, ControllersDegradeToMonitoring) {
  const workload::AppModel app = workload::make_app("bt-mz.d");
  simhw::SimNode node(app.node_config, 5);
  for (std::size_t s = 0; s < node.config().sockets; ++s) {
    node.msr(s).lock(simhw::kMsrUncoreRatioLimit);
  }
  eard::NodeDaemon daemon(node);
  earl::EarlSettings settings = sim::settings_controller("ups");
  earl::EarLibrary library(app.node_config, settings,
                           sim::cached_models(app.node_config));
  EXPECT_EQ(library.attach(daemon, app.is_mpi)->policy().name(),
            "monitoring");
}

}  // namespace
}  // namespace ear
