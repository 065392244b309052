// Energy-model tests: coefficient table mechanics, learning-phase fits,
// prediction accuracy on workloads the fit never saw, and the AVX512
// blending semantics of §V-A.
#include "models/learning.hpp"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "metrics/accumulator.hpp"
#include "oracles/learning_reference.hpp"
#include "simhw/node.hpp"
#include "workload/synthetic.hpp"

namespace ear::models {
namespace {

const simhw::NodeConfig& cfg() {
  static const simhw::NodeConfig c = simhw::make_skylake_6148_node();
  return c;
}

const LearnedModels& learned() {
  static const LearnedModels m = learn_models(cfg());
  return m;
}

metrics::Signature measure(const simhw::WorkDemand& demand, simhw::Pstate p,
                           std::size_t iters = 10) {
  simhw::SimNode node(cfg(), 17,
                      simhw::NoiseModel{.time_sigma = 0, .power_sigma = 0});
  node.set_cpu_pstate(p);
  node.execute_iteration(demand);
  const auto begin = metrics::Snapshot::take(node);
  for (std::size_t i = 0; i < iters; ++i) node.execute_iteration(demand);
  return metrics::compute_signature(begin, metrics::Snapshot::take(node),
                                    iters);
}

TEST(CoefficientTable, DiagonalIsIdentity) {
  CoefficientTable t(4);
  const auto& k = t.at(2, 2);
  EXPECT_TRUE(k.available);
  EXPECT_DOUBLE_EQ(k.a, 1.0);
  EXPECT_DOUBLE_EQ(k.d, 1.0);
  EXPECT_DOUBLE_EQ(k.c, 0.0);
}

TEST(CoefficientTable, SetGetAndBounds) {
  CoefficientTable t(3);
  t.set(0, 2, Coefficients{.a = 0.9, .available = true});
  EXPECT_DOUBLE_EQ(t.at(0, 2).a, 0.9);
  EXPECT_THROW((void)t.at(3, 0), common::InvariantError);
}

TEST(Learning, AllPairsAvailable) {
  const auto& table = *learned().coefficients;
  for (simhw::Pstate f = 0; f < table.num_pstates(); ++f) {
    for (simhw::Pstate t = 0; t < table.num_pstates(); ++t) {
      EXPECT_TRUE(table.at(f, t).available) << f << "->" << t;
    }
  }
}

// Every field of a signature as raw bits, so equality means bitwise.
std::vector<std::uint64_t> bits(const metrics::Signature& s) {
  return {std::bit_cast<std::uint64_t>(s.iter_time_s),
          std::bit_cast<std::uint64_t>(s.cpi),
          std::bit_cast<std::uint64_t>(s.tpi),
          std::bit_cast<std::uint64_t>(s.gbps),
          std::bit_cast<std::uint64_t>(s.vpi),
          std::bit_cast<std::uint64_t>(s.wait_fraction),
          std::bit_cast<std::uint64_t>(s.dc_power_w),
          s.avg_cpu_freq.as_khz(),
          s.avg_imc_freq.as_khz(),
          std::bit_cast<std::uint64_t>(s.elapsed_s),
          s.iterations,
          s.valid ? 1u : 0u};
}

std::vector<std::uint64_t> bits(const Coefficients& k) {
  return {std::bit_cast<std::uint64_t>(k.a), std::bit_cast<std::uint64_t>(k.b),
          std::bit_cast<std::uint64_t>(k.c), std::bit_cast<std::uint64_t>(k.d),
          std::bit_cast<std::uint64_t>(k.e), std::bit_cast<std::uint64_t>(k.f),
          k.available ? 1u : 0u};
}

// Learning runs its samples in blocks of 16 nodes through the governor
// pass; each sample must measure what its own node alone measures (the
// per-sample oracle), so the fitted coefficients are the oracle's bit
// for bit, on every node type and under non-default options.
TEST(Learning, BlocksMatchThePerSampleOracle) {
  const LearningOptions short_run{.iterations_per_sample = 3, .seed = 99};
  for (const simhw::NodeConfig& node :
       {simhw::make_skylake_6148_node(), simhw::make_icelake_8358_node(),
        simhw::make_skylake_6142m_gpu_node()}) {
    for (const LearningOptions& opts : {LearningOptions{}, short_run}) {
      const std::vector<metrics::Signature> want =
          oracle::reference_learning_signatures(node, opts);
      const std::vector<metrics::Signature> got =
          learning_signatures(node, opts);
      ASSERT_EQ(got.size(), want.size()) << node.name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(bits(got[i]), bits(want[i]))
            << node.name << ", sample " << i << ", "
            << opts.iterations_per_sample << " iterations";
      }
      const LearnedModels fitted = fit_models(node, want);
      const LearnedModels learned = learn_models(node, opts);
      const std::size_t num_p = node.pstates.size();
      for (simhw::Pstate from = 0; from < num_p; ++from) {
        for (simhw::Pstate to = 0; to < num_p; ++to) {
          ASSERT_EQ(bits(learned.coefficients->at(from, to)),
                    bits(fitted.coefficients->at(from, to)))
              << node.name << " " << from << "->" << to;
        }
      }
    }
  }
}

TEST(Learning, PredictsHeldOutWorkload) {
  // A workload *not* in the training grid.
  workload::SyntheticSpec spec;
  spec.iter_seconds = 0.8;
  spec.cpi_core = 0.65;
  spec.gbps = 70.0;
  spec.stall_share = 0.33;
  spec.power_activity = 0.4;
  const auto demand = workload::make_demand(cfg(), spec);

  const auto sig_nominal = measure(demand, 1);
  ASSERT_TRUE(sig_nominal.valid);
  // Accuracy tightens near the source state and degrades with the
  // projection distance (linear transfer across a governor-coupled
  // response); the policies only ever commit to points they re-validate.
  for (simhw::Pstate to : {2u, 5u, 9u}) {
    const auto pred = learned().basic->predict(sig_nominal, 1, to);
    const auto truth = measure(demand, to);
    EXPECT_NEAR(pred.time_s, truth.iter_time_s, 0.07 * truth.iter_time_s)
        << "time to pstate " << to;
    EXPECT_NEAR(pred.power_w, truth.dc_power_w, 0.07 * truth.dc_power_w)
        << "power to pstate " << to;
  }
}

TEST(Learning, ProjectionFromReducedState) {
  // Project 2.0 GHz -> 2.4 GHz (upwards), as min_time needs.
  workload::SyntheticSpec spec;
  spec.cpi_core = 0.5;
  spec.gbps = 20.0;
  spec.stall_share = 0.1;
  spec.power_activity = 0.4;
  const auto demand = workload::make_demand(cfg(), spec);
  const simhw::Pstate from = 5;  // 2.0 GHz
  const auto sig = measure(demand, from);
  const auto pred = learned().basic->predict(sig, from, 1);
  const auto truth = measure(demand, 1);
  EXPECT_NEAR(pred.time_s, truth.iter_time_s, 0.06 * truth.iter_time_s);
  EXPECT_NEAR(pred.power_w, truth.dc_power_w, 0.06 * truth.dc_power_w);
}

TEST(BasicModel, IdentityAtSamePstate) {
  metrics::Signature sig;
  sig.valid = true;
  sig.iter_time_s = 1.0;
  sig.cpi = 0.5;
  sig.tpi = 0.01;
  sig.dc_power_w = 300.0;
  const auto pred = learned().basic->predict(sig, 3, 3);
  EXPECT_DOUBLE_EQ(pred.time_s, 1.0);
  EXPECT_DOUBLE_EQ(pred.power_w, 300.0);
}

TEST(BasicModel, WaitFractionDampensTimeScaling) {
  metrics::Signature sig;
  sig.valid = true;
  sig.iter_time_s = 1.0;
  sig.cpi = 0.5;
  sig.tpi = 0.0;
  sig.dc_power_w = 300.0;
  sig.wait_fraction = 0.0;
  const double t_full = learned().basic->predict(sig, 1, 5).time_s;
  sig.wait_fraction = 0.5;
  const double t_half = learned().basic->predict(sig, 1, 5).time_s;
  EXPECT_GT(t_full, t_half);
  // With wait w, penalty shrinks by exactly (1-w).
  EXPECT_NEAR(t_half - 1.0, (t_full - 1.0) * 0.5, 1e-9);
}

TEST(BasicModel, MismatchedTableSizeRejected) {
  auto small = std::make_shared<CoefficientTable>(3);
  EXPECT_THROW(BasicModel(cfg().pstates, small), common::InvariantError);
}

TEST(Avx512Model, ZeroVpiEqualsBasic) {
  metrics::Signature sig;
  sig.valid = true;
  sig.iter_time_s = 1.0;
  sig.cpi = 0.5;
  sig.tpi = 0.005;
  sig.dc_power_w = 320.0;
  sig.vpi = 0.0;
  for (simhw::Pstate to : {0u, 2u, 3u, 8u}) {
    const auto a = learned().avx512->predict(sig, 1, to);
    const auto b = learned().basic->predict(sig, 1, to);
    EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
    EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
  }
}

TEST(Avx512Model, IdentityAtSourceState) {
  metrics::Signature sig;
  sig.valid = true;
  sig.iter_time_s = 1.0;
  sig.cpi = 0.45;
  sig.tpi = 0.01;
  sig.dc_power_w = 369.0;
  sig.vpi = 1.0;
  const auto pred = learned().avx512->predict(sig, 1, 1);
  EXPECT_DOUBLE_EQ(pred.time_s, 1.0);
  EXPECT_DOUBLE_EQ(pred.power_w, 369.0);
}

TEST(Avx512Model, PureAvxSeesNoSpeedupAboveCap) {
  // §V-A: "AVX512 instructions will not take benefit of higher CPU
  // frequencies". Targets above the licence cap cost no time for a
  // VPI=1 workload.
  metrics::Signature sig;
  sig.valid = true;
  sig.iter_time_s = 1.0;
  sig.cpi = 0.45;
  sig.tpi = 0.01;
  sig.dc_power_w = 369.0;
  sig.vpi = 1.0;
  const auto at_23 = learned().avx512->predict(sig, 1, 2);
  const auto at_22 = learned().avx512->predict(sig, 1, 3);
  EXPECT_NEAR(at_23.time_s, 1.0, 0.01);
  EXPECT_NEAR(at_22.time_s, 1.0, 0.01);
  // Below the cap it does slow down.
  const auto at_18 = learned().avx512->predict(sig, 1, 7);
  EXPECT_GT(at_18.time_s, 1.05);
}

TEST(Avx512Model, BlendIsMonotoneInVpi) {
  metrics::Signature sig;
  sig.valid = true;
  sig.iter_time_s = 1.0;
  sig.cpi = 0.5;
  sig.tpi = 0.003;
  sig.dc_power_w = 320.0;
  double prev_time = -1.0;
  for (double vpi : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    sig.vpi = vpi;
    const double t = learned().avx512->predict(sig, 1, 2).time_s;
    if (prev_time >= 0.0) {
      EXPECT_LE(t, prev_time + 1e-12);
    }
    prev_time = t;
  }
}

TEST(ModelRegistry, ByName) {
  EXPECT_EQ(model_by_name(learned(), "basic")->name(), "basic");
  EXPECT_EQ(model_by_name(learned(), "avx512")->name(), "avx512");
  EXPECT_THROW(model_by_name(learned(), "bogus"), common::ConfigError);
}

}  // namespace
}  // namespace ear::models
