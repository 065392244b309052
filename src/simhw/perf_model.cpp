#include "simhw/perf_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ear::simhw {

namespace {
constexpr double kBytesPerTransaction = 64.0;
}

double available_bandwidth_gbps(const MemoryModel& mem, Freq f_imc) {
  return std::min(mem.peak_gbps, mem.slope_gbps_per_ghz * f_imc.as_ghz());
}

IterationTime iteration_time(const NodeConfig& cfg, const WorkDemand& demand,
                             Freq f_cpu, Freq f_imc) {
  EAR_CHECK_MSG(!f_cpu.is_zero() && !f_imc.is_zero(),
                "frequencies must be non-zero");
  EAR_CHECK_MSG(demand.active_cores <= cfg.total_cores(),
                "more active cores than the node has");
  EAR_CHECK_MSG(demand.active_cores > 0 || demand.instructions_per_core == 0.0,
                "instructions require at least one active core");

  const double f_hz = f_cpu.as_hz();
  const Freq f_avx = cfg.pstates.avx512_effective(f_cpu);

  IterationTime t;
  // Compute phase: AVX512 instructions execute at the licence-capped clock.
  t.compute_s = demand.instructions_per_core * demand.cpi_core *
                ((1.0 - demand.vpi) / f_hz + demand.vpi / f_avx.as_hz());

  // Latency-serialised memory stalls: each transaction's non-overlapped
  // stall pays a fixed part plus the uncore traversal, which stretches as
  // f_imc drops.
  const double transactions = demand.bytes / kBytesPerTransaction;
  const double latency_seconds =
      demand.lat_fixed_ns_per_txn * 1e-9 +
      demand.lat_uncore_cycles_per_txn / f_imc.as_hz();
  t.latency_s =
      demand.active_cores == 0
          ? 0.0
          : (transactions / static_cast<double>(demand.active_cores)) *
                latency_seconds;

  // Bandwidth phase: node traffic through the uncore-limited roofline.
  t.available_gbps = available_bandwidth_gbps(cfg.memory, f_imc);
  t.bandwidth_s = demand.bytes / (t.available_gbps * 1e9);

  const double t_busy = std::max(t.compute_s + t.latency_s, t.bandwidth_s);
  t.iter_time = Secs{t_busy + (demand.comm_seconds + demand.gpu_seconds)};
  EAR_CHECK_MSG(t.iter_time.value > 0.0, "iteration must take non-zero time");
  return t;
}

PerfResult evaluate_iteration(const NodeConfig& cfg, const WorkDemand& demand,
                              Freq f_cpu, Freq f_imc) {
  const IterationTime t = iteration_time(cfg, demand, f_cpu, f_imc);
  const double f_hz = f_cpu.as_hz();
  const double transactions = demand.bytes / kBytesPerTransaction;
  const double t_busy = std::max(t.compute_s + t.latency_s, t.bandwidth_s);
  const double t_wait = demand.comm_seconds + demand.gpu_seconds;

  // Cycle accounting (per active core). Compute cycles are fixed by CPI;
  // latency and bandwidth stalls, and busy-wait spinning, accrue cycles at
  // the core clock without retiring application instructions.
  const double cycles_compute =
      demand.instructions_per_core * demand.cpi_core;
  const double stall_seconds = t_busy - t.compute_s;  // includes t_lat
  const double cycles_stall = stall_seconds * f_hz;
  const double cycles_wait = t_wait * f_hz;
  const double spin_ipc =
      demand.spin_ipc_override > 0.0 ? demand.spin_ipc_override : cfg.spin_ipc;
  const double inst_spin = spin_ipc * cycles_wait;
  const double cycles_pc = cycles_compute + cycles_stall + cycles_wait;
  const double inst_pc = demand.instructions_per_core + inst_spin;

  PerfResult r;
  r.iter_time = t.iter_time;
  r.cycles_per_core = cycles_pc;
  r.instructions_per_core = inst_pc;
  r.bytes = demand.bytes;
  r.cpi = inst_pc > 0.0 ? cycles_pc / inst_pc : 0.0;
  const double node_instructions =
      inst_pc * static_cast<double>(std::max<std::size_t>(demand.active_cores, 1));
  r.tpi = node_instructions > 0.0 ? transactions / node_instructions : 0.0;
  r.gbps = demand.bytes / t.iter_time.value / 1e9;
  r.bw_utilisation =
      t.available_gbps > 0.0 ? r.gbps / t.available_gbps : 0.0;
  r.avx512_fraction =
      inst_pc > 0.0 ? demand.vpi * demand.instructions_per_core / inst_pc : 0.0;
  r.compute_time = Secs{t.compute_s + t.latency_s};
  r.bandwidth_time = Secs{t.bandwidth_s};
  r.bandwidth_bound = t.bandwidth_s > t.compute_s + t.latency_s;
  return r;
}

}  // namespace ear::simhw
