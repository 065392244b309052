// A set of identical SimNodes, as one job allocation sees it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simhw/node.hpp"

namespace ear::simhw {

class Cluster {
 public:
  /// Build `count` nodes from the same config, independently seeded.
  /// The config, noise model and UFS tuning are copied once into a
  /// NodeSpec that every node shares.
  Cluster(const NodeConfig& cfg, std::size_t count, std::uint64_t seed,
          NoiseModel noise = {}, HwUfsParams ufs = {});

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] SimNode& node(std::size_t i);
  [[nodiscard]] const SimNode& node(std::size_t i) const;

  /// SimNode::run_governors over every node: node i's governor for its
  /// next iteration of `demands[i]`, its IMC average to `f_imc[i]` and
  /// its noise pair to `noise[i]`. Each node then runs finish_iteration
  /// with all three.
  void run_governors(std::span<const WorkDemand> demands,
                     std::span<common::Freq> f_imc,
                     std::span<NoisePair> noise) {
    SimNode::run_governors(nodes_, demands, f_imc, noise);
  }

  /// Total DC energy across nodes (exact, ground truth).
  [[nodiscard]] common::Joules total_energy() const;
  /// Slowest node clock (job wall time follows the slowest node).
  [[nodiscard]] common::Secs max_clock() const;

  auto begin() { return nodes_.begin(); }
  auto end() { return nodes_.end(); }
  auto begin() const { return nodes_.begin(); }
  auto end() const { return nodes_.end(); }

 private:
  std::vector<SimNode> nodes_;
};

}  // namespace ear::simhw
