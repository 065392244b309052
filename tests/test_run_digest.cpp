// Simulated bits, pinned: an FNV-1a digest over every field of a
// RunResult. paper_golden holds printed values to tolerances (±0.05 GHz,
// ±1 point, ±2 %), which cannot tell that one dither draw moved; these
// digests can. Each case covers a path the governor's batched dither
// pass (SimNode::run_governors) must keep bitwise: a multi-node app, the
// same app under the reference chaos plan and under a mid-run register
// lock (poll() fires between the pass and the node's iteration), a
// single node, and a phase change whose reopened window pays the dither
// draws its capped sockets owe.
//
// A change that moves simulated results on purpose updates these values
// together with tests/golden/paper.json and says which runs moved.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "faults/fault_plan.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "simhw/config.hpp"
#include "workload/catalog.hpp"
#include "workload/synthetic.hpp"

namespace ear::sim {
namespace {

/// FNV-1a over 64-bit words, little-endian byte order.
class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const RunResult& r) {
  Fnv h;
  for (const double v : {r.total_time_s, r.total_energy_j, r.avg_dc_power_w,
                         r.avg_pkg_power_w, r.avg_cpu_ghz, r.avg_imc_ghz,
                         r.cpi, r.gbps}) {
    h.f64(v);
  }
  h.u64(r.nodes.size());
  for (const NodeResult& n : r.nodes) {
    for (const double v : {n.elapsed_s, n.energy_j, n.pkg_energy_j,
                           n.avg_dc_power_w, n.avg_pkg_power_w,
                           n.avg_cpu_ghz, n.avg_imc_ghz, n.cpi, n.tpi,
                           n.gbps, n.vpi}) {
      h.f64(v);
    }
    for (const std::uint64_t v :
         {std::uint64_t{n.signatures}, n.msr_writes,
          std::uint64_t{n.rejected_windows}, std::uint64_t{n.reanchors},
          n.verify_failures, n.reprobes, std::uint64_t{n.degraded}}) {
      h.u64(v);
    }
  }
  h.u64(r.imc_timeline.size());
  for (const auto& [t, ghz] : r.imc_timeline) {
    h.f64(t);
    h.f64(ghz);
  }
  h.u64(r.timeline.size());
  for (const TimelinePoint& p : r.timeline) {
    h.f64(p.t_s);
    h.f64(p.cpu_ghz);
    h.f64(p.imc_ghz);
    h.f64(p.dc_power_w);
  }
  h.u64(r.eargm_throttles);
  h.u64(r.eargm_final_limit);
  const faults::FaultReport& f = r.fault_report;
  for (const std::uint64_t v :
       {f.msr_drops, f.msr_locks, f.snapshot_faults, f.dropped_readings,
        f.island_dropouts, f.verify_failures, f.rejected_windows,
        f.missed_readings, f.reprobes, f.fallbacks, f.reanchors,
        f.unsettled_nodes}) {
    h.u64(v);
  }
  h.u64(r.fault_events.size());
  for (const faults::FaultEvent& e : r.fault_events) {
    h.f64(e.t_s);
    h.u64(e.node);
    h.u64(static_cast<std::uint64_t>(e.family));
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

ExperimentConfig eufs(const std::string& app) {
  return ExperimentConfig{.app = workload::make_app(app),
                          .earl = settings_me_eufs(),
                          .seed = 7};
}

std::shared_ptr<const faults::FaultPlan> plan_file(const std::string& path) {
  return std::make_shared<const faults::FaultPlan>(
      faults::load_fault_plan(path));
}

std::shared_ptr<const faults::FaultPlan> plan_text(const std::string& text) {
  std::istringstream in(text);
  return std::make_shared<const faults::FaultPlan>(
      faults::parse_fault_plan(in));
}

// dumses: 13 nodes, 26 dither streams per iteration.
TEST(RunDigest, MultiNodeApp) {
  const RunResult r = run_experiment(eufs("dumses"));
  ASSERT_EQ(r.nodes.size(), 13u);
  EXPECT_EQ(hex(digest(r)), "b3fac4b364b7cda7");
}

TEST(RunDigest, MultiNodeAppUnderChaosPlan) {
  ExperimentConfig cfg = eufs("dumses");
  cfg.fault_plan = plan_file(EAR_EXAMPLES_DIR "/chaos.plan");
  const RunResult r = run_experiment(cfg);
  ASSERT_GT(r.fault_report.msr_drops, 0u);
  ASSERT_GT(r.fault_report.dropped_readings, 0u);
  EXPECT_EQ(hex(digest(r)), "1972348a72ca892f");
}

TEST(RunDigest, MultiNodeAppUnderMidRunLock) {
  ExperimentConfig cfg = eufs("dumses");
  cfg.fault_plan = plan_text("[msr_lock]\nat = 20\n");
  const RunResult r = run_experiment(cfg);
  ASSERT_EQ(r.fault_report.msr_locks, r.nodes.size());
  EXPECT_EQ(hex(digest(r)), "6883ec5c9228eb9b");
}

TEST(RunDigest, SingleNodeApp) {
  const RunResult r = run_experiment(eufs("bt-mz.c.omp"));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(hex(digest(r)), "f1b8d90b82ebb72");
}

// The IMC cap holds both UFS selections on one value, so the capped
// sockets owe their dither draws; the memory phase's eUFS restart
// reopens the window, and its first counting plans pay that debt (tens
// of thousands of draws across the two sockets).
TEST(RunDigest, PhaseChangePaysOwedDraws) {
  const RunResult r = run_experiment(ExperimentConfig{
      .app = workload::make_phase_change_app(simhw::make_skylake_6148_node(),
                                             240),
      .earl = settings_me_eufs(0.05, 0.02),
      .seed = 7});
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(hex(digest(r)), "d5816f3ae777ab95");
}

}  // namespace
}  // namespace ear::sim
