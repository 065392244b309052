// The per-sample learning phase: the executable specification
// models::learning_signatures is differentially tested against. Every
// sample runs alone on its own noise-free node, one execute_iteration at
// a time.
#pragma once

#include <vector>

#include "metrics/signature.hpp"
#include "models/learning.hpp"
#include "simhw/config.hpp"

namespace ear::models::oracle {

/// learning_signatures' samples, in its order, each measured on a node
/// of its own.
[[nodiscard]] std::vector<metrics::Signature> reference_learning_signatures(
    const simhw::NodeConfig& cfg, const LearningOptions& opts = {});

}  // namespace ear::models::oracle
