// Analytic performance model: WorkDemand x (f_cpu, f_imc) -> iteration time
// and PMU-visible counters.
//
// Structure (per iteration, per node):
//   t_compute = I_pc * cpi_core * ((1-vpi)/f_cpu + vpi/f_avx)
//   t_lat     = (T/active_cores) * lambda * (lat_fixed + lat_unc/f_imc)
//   t_bw      = bytes / min(BW_peak, slope * f_imc)
//   t_busy    = max(t_compute + t_lat, t_bw)       (roofline overlap)
//   t_iter    = t_busy + t_comm + t_gpu
// where T = bytes/64 is the transaction count and f_avx the AVX512-capped
// effective frequency. CPI/GB-s observables follow from the cycle/instr
// accounting, including spin instructions during comm/GPU waits — this is
// what the EAR signature sees through the PMU.
#pragma once

#include "common/units.hpp"
#include "simhw/config.hpp"
#include "simhw/demand.hpp"

namespace ear::simhw {

using common::Freq;
using common::Secs;

/// Result of evaluating one iteration on one node.
struct PerfResult {
  Secs iter_time;           // wall time of the iteration
  double cycles_per_core = 0.0;
  double instructions_per_core = 0.0;  // incl. spin instructions
  double bytes = 0.0;       // node memory traffic
  double cpi = 0.0;         // observed cycles/instruction
  double tpi = 0.0;         // transactions per instruction (node level)
  double gbps = 0.0;        // observed node bandwidth
  double bw_utilisation = 0.0;   // achieved / available at current f_imc
  double avx512_fraction = 0.0;  // observed VPI (incl. spin dilution)
  Secs compute_time;        // t_compute + t_lat component
  Secs bandwidth_time;      // t_bw component
  bool bandwidth_bound = false;
};

/// Node bandwidth available at a given uncore frequency (GB/s).
[[nodiscard]] double available_bandwidth_gbps(const MemoryModel& mem,
                                              Freq f_imc);

/// The wall-time half of evaluate_iteration: the roofline's terms and the
/// iteration's time, without the PMU-visible counters. The governor
/// counts its control periods from it; evaluate_iteration builds on it,
/// so the two agree bit for bit.
struct IterationTime {
  Secs iter_time;               // t_busy + t_comm + t_gpu
  double compute_s = 0.0;       // t_compute
  double latency_s = 0.0;       // t_lat
  double bandwidth_s = 0.0;     // t_bw
  double available_gbps = 0.0;  // at f_imc
};

/// The time of one iteration of `demand` with every active core at
/// `f_cpu` and the socket uncores at `f_imc` (evaluate_iteration's checks
/// apply).
[[nodiscard]] IterationTime iteration_time(const NodeConfig& cfg,
                                           const WorkDemand& demand,
                                           Freq f_cpu, Freq f_imc);

/// Evaluate one iteration of `demand` with every active core at `f_cpu` and
/// the socket uncores at `f_imc`.
[[nodiscard]] PerfResult evaluate_iteration(const NodeConfig& cfg,
                                            const WorkDemand& demand,
                                            Freq f_cpu, Freq f_imc);

}  // namespace ear::simhw
