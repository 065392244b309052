// The EAR learning phase: characterise an architecture by running a grid
// of synthetic kernels at every P-state on the (simulated) node and
// fitting the projection coefficients by least squares. Real EAR does
// exactly this once per architecture at installation time; the paper's
// policies then use the resulting tables at runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "metrics/signature.hpp"
#include "models/avx512_model.hpp"
#include "models/basic_model.hpp"
#include "simhw/config.hpp"
#include "simhw/demand.hpp"

namespace ear::models {

struct LearnedModels {
  std::shared_ptr<const CoefficientTable> coefficients;
  std::shared_ptr<const BasicModel> basic;
  std::shared_ptr<const Avx512Model> avx512;
};

struct LearningOptions {
  std::size_t iterations_per_sample = 10;  // per workload x pstate
  std::uint64_t seed = 0x1ea12;
};

/// Run the learning phase for `cfg` and fit the coefficient table:
/// fit_models over learning_signatures.
[[nodiscard]] LearnedModels learn_models(const simhw::NodeConfig& cfg,
                                         const LearningOptions& opts = {});

/// The learning suite's workloads as demands on `cfg`, in suite order.
[[nodiscard]] std::vector<simhw::WorkDemand> learning_demands(
    const simhw::NodeConfig& cfg);

/// One signature per learning sample, sample w * P-states + p for
/// workload w at P-state p: a noise-free node seeded opts.seed + 131 w + p
/// runs one warm-up iteration, then opts.iterations_per_sample measured
/// ones. The samples run in blocks of 16 nodes, each iteration's
/// governors and noise in one SimNode::run_governors pass; every
/// signature is bitwise what the sample's node alone would measure.
[[nodiscard]] std::vector<metrics::Signature> learning_signatures(
    const simhw::NodeConfig& cfg, const LearningOptions& opts = {});

/// Fit the coefficient table to learning_signatures' samples by least
/// squares: for every P-state pair, power and CPI at the target from
/// power, TPI and CPI at the source.
[[nodiscard]] LearnedModels fit_models(
    const simhw::NodeConfig& cfg, std::span<const metrics::Signature> sigs);

/// Name-based model selection over a learned set (the plugin mechanism's
/// moral equivalent: policies name their model, EARL resolves it).
[[nodiscard]] EnergyModelPtr model_by_name(const LearnedModels& learned,
                                           const std::string& name);

}  // namespace ear::models
