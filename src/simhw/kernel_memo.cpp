#include "simhw/kernel_memo.hpp"

namespace ear::simhw {

PerfResult IterationMemo::evaluate(const NodeConfig& cfg,
                                   const WorkDemand& demand, Freq f_cpu,
                                   Freq f_imc) {
  if (valid_ && cpu_khz_ == f_cpu.as_khz() && imc_khz_ == f_imc.as_khz() &&
      demand_ == demand) {
    ++hits_;
    return result_;
  }
  ++misses_;
  result_ = evaluate_iteration(cfg, demand, f_cpu, f_imc);
  cpu_khz_ = f_cpu.as_khz();
  imc_khz_ = f_imc.as_khz();
  demand_ = demand;
  valid_ = true;
  return result_;
}

}  // namespace ear::simhw
