// EARD: the privileged node daemon.
//
// In the real system EARL is an unprivileged library; every P-state
// change, MSR write and energy reading goes through the per-node EAR
// daemon. Keeping that boundary here means the policies and runtime never
// touch SimNode internals directly — they could be pointed at real
// hardware by swapping this class.
#pragma once

#include "metrics/accumulator.hpp"
#include "policies/policy_api.hpp"
#include "simhw/node.hpp"

namespace ear::eard {

/// Fault-injection hook on the snapshot path: when installed, every
/// counter snapshot the daemon serves passes through the filter, which
/// may corrupt it or serve a stale copy. Null by default.
class SnapshotFilter {
 public:
  virtual ~SnapshotFilter() = default;
  [[nodiscard]] virtual metrics::Snapshot filter(
      const metrics::Snapshot& clean) = 0;
};

class NodeDaemon {
 public:
  explicit NodeDaemon(simhw::SimNode& node) : node_(&node) {}

  /// Apply a policy's frequency selection: P-state plus the uncore window
  /// written to UNCORE_RATIO_LIMIT on every socket. The request is
  /// clamped by any active cluster-manager limit. Every uncore write is
  /// verified by read-back; a mismatch invalidates the cached
  /// writability probe (see uncore_writable) and either retries once
  /// (transient drop) or marks the uncore path unhealthy (lock).
  void set_freqs(const policies::NodeFreqs& freqs);

  /// Cluster-manager (EARGM) frequency limit: P-states faster than
  /// `slowest_allowed` are clamped to it. Takes effect immediately and on
  /// every subsequent set_freqs. Pass 0 to remove the limit.
  void set_pstate_limit(simhw::Pstate slowest_allowed);
  [[nodiscard]] simhw::Pstate pstate_limit() const { return limit_; }

  /// Probe whether UNCORE_RATIO_LIMIT is actually writable: some BIOSes
  /// lock the register, and writes are silently dropped. The daemon
  /// performs a write/read-back/restore cycle and caches the result; the
  /// cache is invalidated whenever a later write fails its read-back, so
  /// a register locked *after* attach is still noticed. EARL uses it to
  /// fall back to hardware UFS (see EarLibrary::attach).
  [[nodiscard]] bool uncore_writable();

  /// Drop the cached probe and probe again; used by the degradation path
  /// to distinguish a transient write drop from a mid-run lock. Returns
  /// the fresh result and resets the health flag accordingly.
  [[nodiscard]] bool reprobe();

  /// False once the daemon has concluded uncore writes no longer stick
  /// (mid-run lock); set_freqs stops touching the register and EARL
  /// degrades to its HW-UFS / CPU-only fallback.
  [[nodiscard]] bool uncore_ok() const { return uncore_healthy_; }

  /// Counter/energy snapshot for signature windows.
  [[nodiscard]] metrics::Snapshot snapshot() const {
    const metrics::Snapshot clean = metrics::Snapshot::take(*node_);
    return snapshot_filter_ != nullptr ? snapshot_filter_->filter(clean)
                                       : clean;
  }

  /// Install (or clear, with nullptr) the fault-injection snapshot hook.
  /// The filter must outlive its installation.
  void set_snapshot_filter(SnapshotFilter* filter) {
    snapshot_filter_ = filter;
  }
  /// Whether snapshots pass through a filter (otherwise a snapshot is
  /// the node's counters as they stand).
  [[nodiscard]] bool filters_snapshots() const {
    return snapshot_filter_ != nullptr;
  }

  [[nodiscard]] const simhw::SimNode& node() const { return *node_; }
  [[nodiscard]] simhw::Pstate current_pstate() const {
    return node_->cpu_pstate();
  }
  [[nodiscard]] simhw::UncoreRatioLimit uncore_window() const {
    return node_->uncore_limit();
  }
  /// Number of MSR writes issued so far (overhead accounting).
  [[nodiscard]] std::uint64_t msr_writes() const;

  /// Resilience accounting: read-back mismatches seen and probe re-runs
  /// forced by them (or by reprobe()).
  [[nodiscard]] std::uint64_t verify_failures() const {
    return verify_failures_;
  }
  [[nodiscard]] std::uint64_t reprobes() const { return reprobes_; }

 private:
  /// Read back the window just written and handle a mismatch (retry once
  /// on a transient drop, or mark the uncore path unhealthy on a lock).
  /// Returns whether `want` is in force afterwards.
  [[nodiscard]] bool verify_uncore_write(const simhw::UncoreRatioLimit& want);

  simhw::SimNode* node_;
  SnapshotFilter* snapshot_filter_ = nullptr;
  simhw::Pstate limit_ = 0;          // 0 = unconstrained
  simhw::Pstate last_requested_ = 0;  // policy's last request, pre-clamp
  bool probed_uncore_ = false;
  bool uncore_writable_ = true;
  bool uncore_healthy_ = true;
  std::uint64_t verify_failures_ = 0;
  std::uint64_t reprobes_ = 0;
};

}  // namespace ear::eard
