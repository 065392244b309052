// Static description of a simulated compute node: topology, P-state and
// uncore tables, and the calibrated constants of the performance and power
// models. Factory functions provide the two node types the paper uses.
#pragma once

#include <cstddef>
#include <string>

#include "common/units.hpp"
#include "simhw/pstate.hpp"

namespace ear::simhw {

using common::Freq;
using common::Watts;

/// Memory-subsystem model constants (per node).
struct MemoryModel {
  /// Sustainable node bandwidth with the uncore at its maximum frequency.
  double peak_gbps = 230.0;
  /// Bandwidth scales roughly linearly with uncore frequency below the
  /// DRAM limit: available = min(peak, slope_gbps_per_ghz * f_imc).
  double slope_gbps_per_ghz = 105.0;
  /// Fixed portion of a memory transaction's latency (core + DRAM), ns.
  double fixed_latency_ns = 51.0;
  /// Uncore traversal cycles (LLC + mesh + IMC queue); latency contribution
  /// is cycles / f_imc, so lowering the uncore clock lengthens every miss.
  double uncore_latency_cycles = 78.0;
};

/// Voltage/frequency and power model constants. The defaults are calibrated
/// so that catalog workloads land near the paper's Tables II/V DC powers.
struct PowerModel {
  /// Node baseline outside the packages: fans, VRs, disks, NIC, BMC.
  double base_watts = 70.0;
  /// Core voltage: V(f) = v0 + v1 * f_ghz.
  double core_v0 = 0.62;
  double core_v1 = 0.16;
  /// Per-core leakage at V: leak_w_per_v * V.
  double core_leak_w_per_v = 0.30;
  /// Per-core dynamic power: c_dyn * f_ghz * V^2 * activity.
  double core_dyn_w = 0.9;
  /// Activity from IPC: act = act0 + act1 * ipc (clamped). Stalled cores
  /// keep most of the out-of-order machinery switching, so the IPC
  /// dependence is mild — memory-bound codes still have a large DVFS
  /// power lever (the paper's HPCG saves ~11% DC power from CPU scaling).
  double act0 = 0.75;
  double act1 = 0.18;
  /// Extra activity multiplier when executing AVX512 (wide units powered).
  double avx512_act_bonus = 0.85;
  /// Idle (C-state) power per core.
  double core_idle_watts = 0.35;
  /// Uncore voltage: Vu(f) = u_v0 + u_v1 * f_ghz.
  double uncore_v0 = 0.70;
  double uncore_v1 = 0.12;
  /// Per-socket uncore leakage (W per volt) and dynamic coefficient.
  double uncore_leak_w_per_v = 10.0;
  double uncore_dyn_w = 30.0;
  /// Uncore activity floor/slope vs bandwidth utilisation.
  double uncore_act0 = 0.55;
  double uncore_act1 = 0.25;
  /// DRAM: background + per-GB/s cost.
  double dram_background_watts = 20.0;
  double dram_w_per_gbps = 0.15;
  /// GPU power (only populated on GPU nodes).
  double gpu_idle_watts = 0.0;
  double gpu_busy_watts = 0.0;
  std::size_t gpu_count = 0;
};

/// Most sockets a simulated node may have. Per-socket state (MSR file,
/// UFS loop, RAPL package counter) lives inline in arrays of this size.
inline constexpr std::size_t kMaxSockets = 2;

/// Complete static node description.
struct NodeConfig {
  std::string name;
  std::size_t sockets = 2;  // 1..kMaxSockets
  std::size_t cores_per_socket = 20;
  PstateTable pstates;
  UncoreRange uncore;
  MemoryModel memory;
  PowerModel power;
  /// IPC of a busy-wait (MPI/GPU polling) loop, for spin-phase accounting.
  /// Pause-based spin loops retire fast; ~2 IPC matches the paper's CUDA
  /// kernel CPIs of ~0.5.
  double spin_ipc = 2.0;

  [[nodiscard]] std::size_t total_cores() const {
    return sockets * cores_per_socket;
  }
};

/// Lenovo SD530 node: 2x Xeon Gold 6148 (20c, 2.40 GHz nominal, AVX512
/// all-core licence 2.2 GHz), uncore 1.2-2.4 GHz — the paper's main testbed.
[[nodiscard]] NodeConfig make_skylake_6148_node();

/// GPU node: 2x Xeon Gold 6142M (16c, 2.60 GHz) + 2x NVIDIA V100; same
/// uncore limits (1.2-2.4 GHz). Used for the paper's CUDA kernels.
[[nodiscard]] NodeConfig make_skylake_6142m_gpu_node();

/// Ice Lake-SP-style node (2x 32c, 2.6 GHz nominal, milder AVX512 licence
/// at 2.4 GHz, wider uncore window 0.8-2.4 GHz): the direction the
/// paper's conclusions point to next. Nothing in the stack is
/// Skylake-specific — policies, learning and searches follow the tables
/// in this config.
[[nodiscard]] NodeConfig make_icelake_8358_node();

}  // namespace ear::simhw
