// Fault plans: deterministic, seed-driven fault schedules for the
// simulated cluster.
//
// The paper's whole control loop rests on two privileged operations —
// reading hardware counters and writing MSR 0x620 through the node daemon
// — and those are exactly the operations that misbehave on real Skylake
// fleets: BIOS-locked registers, RAPL/INM counters that stick or wrap,
// glitchy DC-power sensors, daemons that miss snapshots. A FaultPlan
// describes *when* and *where* such faults happen over simulated time; the
// FaultInjector (injector.hpp) applies them through hook points in
// simhw::MsrFile and eard::NodeDaemon. Plans are INI-style text, read
// like every input file (docs/usage.md §"Input files"):
//
//   # one section per scheduled fault
//   [msr_drop]
//   node = 0          ; -1 (default) = every node
//   socket = -1       ; -1 = every socket
//   start = 20        ; active window [start, end) in simulated seconds
//   end = 60
//   probability = 0.5 ; per-write drop chance
//
//   [msr_lock]
//   node = 1
//   at = 30           ; lock the register at t = 30 s
//
//   [inm_stuck]       ; energy counter freezes inside the window
//   [inm_noise]       ; bursty DC-sensor noise; magnitude = joules
//   [pmu_glitch]      ; TSC jumps / APERF-MPERF corruption
//   [snapshot_drop]   ; daemon serves a stale snapshot
//   [node_dropout]    ; node's power reading never reaches EARGM
//
//   [island_dropout]  ; a whole island's report stream goes dark towards
//   island = 1        ;   the cluster-tier EARGM; -1 (default) = every
//   start = 10        ;   island. Applied by sim::Facility (the per-node
//   end = 20          ;   injector has no notion of islands).
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "faults/report.hpp"

namespace ear::faults {

/// One scheduled fault: a family plus its targeting and timing.
struct FaultSpec {
  FaultFamily family = FaultFamily::kMsrDrop;
  /// Target node index; negative = all nodes.
  int node = -1;
  /// Target socket for MSR faults; negative = all sockets.
  int socket = -1;
  /// Target island for island_dropout; negative = all islands.
  int island = -1;
  /// Active window in simulated seconds: [start_s, end_s).
  double start_s = 0.0;
  double end_s = 1e30;
  /// Per-event chance (per MSR write / snapshot / reading) in [0, 1].
  double probability = 1.0;
  /// Family-specific magnitude: joules for inm_noise, seconds (clock
  /// jump) or relative counter distortion for pmu_glitch.
  double magnitude = 0.0;
  /// Register address for MSR faults.
  std::uint32_t reg = 0x620;

  [[nodiscard]] bool applies_to_node(std::size_t n) const {
    return node < 0 || static_cast<std::size_t>(node) == n;
  }
  [[nodiscard]] bool applies_to_socket(std::size_t s) const {
    return socket < 0 || static_cast<std::size_t>(socket) == s;
  }
  [[nodiscard]] bool applies_to_island(std::size_t i) const {
    return island < 0 || static_cast<std::size_t>(island) == i;
  }
  [[nodiscard]] bool active_at(double t_s) const {
    return t_s >= start_s && t_s < end_s;
  }
};

/// A parsed fault schedule. An empty plan arms nothing.
struct FaultPlan {
  std::vector<FaultSpec> specs;

  [[nodiscard]] bool empty() const { return specs.empty(); }
  /// Distinct fault families present (acceptance: chaos campaigns cover
  /// at least four).
  [[nodiscard]] std::size_t family_count() const;
  [[nodiscard]] bool has_family(FaultFamily f) const;
};

/// Parse a plan from the INI-style stream. Throws common::ConfigError on
/// unknown sections/keys or invalid values.
[[nodiscard]] FaultPlan parse_fault_plan(std::istream& in);

/// Load a plan from a file path.
[[nodiscard]] FaultPlan load_fault_plan(const std::string& path);

[[nodiscard]] const char* family_name(FaultFamily f);

}  // namespace ear::faults
