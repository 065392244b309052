// Analytic node power model.
//
// DC node power = baseline + sum over sockets of (core + uncore) + DRAM
// + GPUs. The baseline (fans, voltage regulators, disks, BMC, NIC) is
// frequency-independent — this is exactly why the paper insists on
// evaluating with DC node power instead of RAPL package power (Table VII):
// a package saving is a larger *fraction* of package power than of node
// power, and the ratio between the two varies per application.
#pragma once

#include "common/units.hpp"
#include "simhw/config.hpp"
#include "simhw/demand.hpp"
#include "simhw/perf_model.hpp"

namespace ear::simhw {

using common::Watts;

/// Per-component power attribution for one node at one operating point.
struct PowerBreakdown {
  Watts base;     // node baseline outside the packages
  Watts cores;    // all cores, active + idle, both sockets
  Watts uncore;   // LLC/mesh/IMC, both sockets
  Watts dram;     // DIMM power
  Watts gpu;      // accelerators (zero on CPU-only nodes)

  /// RAPL PKG domain: cores + uncore (what the related work reports).
  [[nodiscard]] Watts package() const { return cores + uncore; }
  /// Full DC node power (what the paper reports).
  [[nodiscard]] Watts total() const {
    return base + cores + uncore + dram + gpu;
  }
};

/// DIMM power at an observed node bandwidth: evaluate_power's DRAM term,
/// which a stretch recomputes alone for every iteration's noisy time.
[[nodiscard]] inline Watts dram_power(const PowerModel& pm, double gbps) {
  return Watts{pm.dram_background_watts + pm.dram_w_per_gbps * gbps};
}

/// Evaluate average power over an iteration whose performance result is
/// `perf` (the observed IPC/VPI/bandwidth determine switching activity).
[[nodiscard]] PowerBreakdown evaluate_power(const NodeConfig& cfg,
                                            const WorkDemand& demand,
                                            const PerfResult& perf,
                                            Freq f_cpu, Freq f_imc);

/// Core voltage at a given frequency.
[[nodiscard]] double core_voltage(const PowerModel& pm, Freq f);
/// Uncore voltage at a given frequency.
[[nodiscard]] double uncore_voltage(const PowerModel& pm, Freq f);

}  // namespace ear::simhw
