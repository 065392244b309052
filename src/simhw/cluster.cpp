#include "simhw/cluster.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ear::simhw {

Cluster::Cluster(const NodeConfig& cfg, std::size_t count, std::uint64_t seed,
                 NoiseModel noise, HwUfsParams ufs) {
  EAR_CHECK_MSG(count > 0, "a cluster needs at least one node");
  const auto spec = std::make_shared<const NodeSpec>(
      NodeSpec{.config = cfg, .noise = noise, .ufs = ufs});
  common::SplitMix64 seeder(seed);
  nodes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nodes_.emplace_back(spec, seeder.next());
  }
}

SimNode& Cluster::node(std::size_t i) {
  EAR_CHECK(i < nodes_.size());
  return nodes_[i];
}

const SimNode& Cluster::node(std::size_t i) const {
  EAR_CHECK(i < nodes_.size());
  return nodes_[i];
}

common::Joules Cluster::total_energy() const {
  common::Joules total{};
  for (const auto& n : nodes_) total += n.inm().exact();
  return total;
}

common::Secs Cluster::max_clock() const {
  common::Secs max{};
  for (const auto& n : nodes_) max = std::max(max, n.clock());
  return max;
}

}  // namespace ear::simhw
