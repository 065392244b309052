// Hierarchical EARGM federation: node -> island -> cluster.
//
// A facility is too large for one manager to poll every node, so the
// control plane is tiered the way production EAR deployments (and
// facility power managers like Cuttlefish, arXiv 2110.00617) are: each
// *island* — a homogeneous partition sharing a node type — runs its own
// EargmManager over its nodes, and a cluster-tier manager splits the
// facility-wide cap into per-island budgets every round, following each
// island's measured demand.
//
// The NaN-tolerant hold semantics apply at every tier:
//   * node tier   — a missing node reading is substituted with the
//     node's last known power (EargmManager::update).
//   * island tier — an island whose nodes ALL went dark holds its
//     P-state limit for the round (blind-round hold), and the cluster
//     tier substitutes the island's last known aggregate.
//   * cluster tier — if EVERY island is blind the facility holds the
//     current budget split; redistributing on zero information would
//     thrash the caps for no reason.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "eargm/eargm.hpp"

namespace ear::eargm {

struct FederationConfig {
  /// Total facility power cap, split across the islands.
  common::Power facility_budget{0.0};
  /// Island-tier control template. cluster_budget is ignored — the
  /// cluster tier overwrites each island's budget every round.
  EargmConfig island{};
  /// Fraction of the facility budget split evenly as a guaranteed
  /// per-island floor; the remainder follows last-known island demand.
  /// The floor keeps a momentarily idle island from being starved to a
  /// zero budget it could never climb back out of.
  double floor_share = 0.25;
};

class FederatedEargm {
 public:
  /// One daemon group per island; groups are concatenated in island
  /// order to form the facility-wide reading layout for update().
  FederatedEargm(FederationConfig cfg,
                 std::vector<std::vector<eard::NodeDaemon*>> islands);

  /// One facility control round: `node_power_w` holds per-node average
  /// power, island-major (island 0's nodes first, then island 1's, ...).
  /// NaN = the reading never arrived. Island managers step their limits
  /// against their current budgets, then the cluster tier redistributes
  /// the facility cap from the islands' (last known) aggregates for the
  /// next round.
  void update(std::span<const double> node_power_w);

  [[nodiscard]] std::size_t islands() const { return islands_.size(); }
  [[nodiscard]] std::size_t total_nodes() const { return total_nodes_; }
  [[nodiscard]] const EargmManager& island(std::size_t i) const;
  [[nodiscard]] common::Power island_budget(std::size_t i) const;
  /// Facility aggregate from the last round, with substitutions.
  [[nodiscard]] common::Power facility_power() const {
    return {facility_w_};
  }
  [[nodiscard]] common::Power budget() const { return cfg_.facility_budget; }
  /// Rounds where at least one island budget moved.
  [[nodiscard]] std::size_t redistributions() const { return redists_; }
  /// Rounds where every island was dark and the split was held.
  [[nodiscard]] std::size_t facility_blind_rounds() const {
    return facility_blind_rounds_;
  }
  /// Island-rounds dark (summed over islands).
  [[nodiscard]] std::size_t island_blind_rounds() const;
  /// Facility-wide NaN substitutions (summed over island managers).
  [[nodiscard]] std::size_t total_missed_readings() const;
  /// Facility-wide node recovery events.
  [[nodiscard]] std::size_t total_resumed_nodes() const;
  [[nodiscard]] std::size_t total_throttle_events() const;
  [[nodiscard]] std::size_t total_release_events() const;

  /// Control rounds completed (update() calls).
  [[nodiscard]] std::size_t rounds() const { return rounds_; }

  /// Round-boundary hook: invoked at the end of every update() with the
  /// number of completed rounds and the substituted facility aggregate.
  /// The event-driven facility core registers one to schedule the next
  /// EARGM-round barrier event — the federation drives its own cadence
  /// instead of being polled every tick. At most one hook; pass an empty
  /// function to clear it.
  using RoundHook = std::function<void(std::size_t rounds_completed,
                                       common::Power facility_power)>;
  void set_round_hook(RoundHook hook) { round_hook_ = std::move(hook); }

 private:
  void redistribute();

  FederationConfig cfg_;
  std::vector<std::unique_ptr<EargmManager>> islands_;
  std::vector<std::size_t> sizes_;
  // The cap re-split is a serial reduction over the islands' last-known
  // aggregates; neither vector may be touched from a parallel region
  // (facility rounds fan node stepping out over a pool).
  std::vector<double> budgets_w_;
  std::vector<double> last_known_island_w_;
  std::size_t total_nodes_ = 0;
  double facility_w_ = 0.0;
  std::size_t redists_ = 0;
  std::size_t facility_blind_rounds_ = 0;
  std::size_t rounds_ = 0;
  RoundHook round_hook_;
};

}  // namespace ear::eargm
