#include "simhw/power_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ear::simhw {

double core_voltage(const PowerModel& pm, Freq f) {
  return pm.core_v0 + pm.core_v1 * f.as_ghz();
}

double uncore_voltage(const PowerModel& pm, Freq f) {
  return pm.uncore_v0 + pm.uncore_v1 * f.as_ghz();
}

PowerBreakdown evaluate_power(const NodeConfig& cfg, const WorkDemand& demand,
                              const PerfResult& perf, Freq f_cpu,
                              Freq f_imc) {
  const PowerModel& pm = cfg.power;
  PowerBreakdown out;
  out.base = Watts{pm.base_watts};

  // --- Cores -------------------------------------------------------------
  // Active cores: leakage grows with voltage; dynamic power is f * V^2
  // scaled by a switching-activity factor derived from the observed IPC
  // (spin-diluted, so busy-wait phases draw less) plus an AVX512 bonus for
  // the wide vector units.
  const double v = core_voltage(pm, f_cpu);
  const double ipc = perf.cpi > 0.0 ? 1.0 / perf.cpi : 0.0;
  const double act =
      std::clamp(pm.act0 + pm.act1 * ipc, 0.5, 1.3) *
      (1.0 + pm.avx512_act_bonus * perf.avx512_fraction);
  const double active = static_cast<double>(demand.active_cores);
  const double idle =
      static_cast<double>(cfg.total_cores() - demand.active_cores);
  const double core_leak = pm.core_leak_w_per_v * v;
  const double core_dyn =
      pm.core_dyn_w * f_cpu.as_ghz() * v * v * act * demand.power_activity;
  out.cores = Watts{active * (core_leak + core_dyn) +
                    idle * pm.core_idle_watts};

  // --- Uncore ------------------------------------------------------------
  const double vu = uncore_voltage(pm, f_imc);
  const double uncore_act =
      pm.uncore_act0 +
      pm.uncore_act1 * std::clamp(perf.bw_utilisation, 0.0, 1.0);
  const double uncore_per_socket =
      pm.uncore_leak_w_per_v * vu +
      pm.uncore_dyn_w * f_imc.as_ghz() * vu * vu * uncore_act;
  out.uncore = Watts{static_cast<double>(cfg.sockets) * uncore_per_socket};

  // --- DRAM --------------------------------------------------------------
  out.dram = dram_power(pm, perf.gbps);

  // --- GPUs --------------------------------------------------------------
  if (pm.gpu_count > 0) {
    EAR_CHECK(demand.gpus_busy <= pm.gpu_count);
    const double t_iter = perf.iter_time.value;
    const double busy_frac =
        t_iter > 0.0 ? std::min(1.0, demand.gpu_seconds / t_iter) : 0.0;
    double gpu = static_cast<double>(pm.gpu_count) * pm.gpu_idle_watts;
    gpu += static_cast<double>(demand.gpus_busy) * busy_frac *
           (pm.gpu_busy_watts - pm.gpu_idle_watts);
    out.gpu = Watts{gpu};
  } else {
    out.gpu = Watts{0.0};
  }
  return out;
}

}  // namespace ear::simhw
