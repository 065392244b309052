#include "oracles/learning_reference.hpp"

#include "common/error.hpp"
#include "metrics/accumulator.hpp"
#include "simhw/node.hpp"

namespace ear::models::oracle {

namespace {

metrics::Signature measure(const simhw::NodeConfig& cfg,
                           const simhw::WorkDemand& demand,
                           simhw::Pstate pstate, std::size_t iterations,
                           std::uint64_t seed) {
  // Noise-free node: learning wants the clean response surface.
  simhw::SimNode node(cfg, seed,
                      simhw::NoiseModel{.time_sigma = 0.0, .power_sigma = 0.0});
  node.set_cpu_pstate(pstate);
  // One warm-up iteration lets the HW UFS governor settle on its target
  // before the measurement window opens.
  (void)node.execute_iteration(demand);
  const auto begin = metrics::Snapshot::take(node);
  for (std::size_t i = 0; i < iterations; ++i) {
    (void)node.execute_iteration(demand);
  }
  return metrics::compute_signature(begin, metrics::Snapshot::take(node),
                                    iterations);
}

}  // namespace

std::vector<metrics::Signature> reference_learning_signatures(
    const simhw::NodeConfig& cfg, const LearningOptions& opts) {
  const std::vector<simhw::WorkDemand> demands = learning_demands(cfg);
  const std::size_t num_p = cfg.pstates.size();
  std::vector<metrics::Signature> sigs(demands.size() * num_p);
  for (std::size_t w = 0; w < demands.size(); ++w) {
    for (std::size_t p = 0; p < num_p; ++p) {
      sigs[w * num_p + p] =
          measure(cfg, demands[w], p, opts.iterations_per_sample,
                  opts.seed + w * 131 + p);
      EAR_CHECK_MSG(sigs[w * num_p + p].valid,
                    "learning sample produced an invalid signature");
    }
  }
  return sigs;
}

}  // namespace ear::models::oracle
