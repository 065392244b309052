#include "analysis/signature_lattice.hpp"

#include <cstdio>

#include "common/contracts.hpp"

namespace ear::analysis {

SignatureLattice::SignatureLattice(metrics::Signature base, LatticeAxes axes)
    : base_(base), axes_(std::move(axes)) {
  EAR_EXPECT_MSG(base_.valid, "lattice base must be a valid signature");
  EAR_EXPECT_MSG(!axes_.cpi_mults.empty() && !axes_.gbps_mults.empty() &&
                     !axes_.power_mults.empty() && !axes_.vpi_levels.empty() &&
                     !axes_.imc_observed.empty(),
                 "every lattice axis needs at least one level");
  size_ = axes_.cpi_mults.size() * axes_.gbps_mults.size() *
          axes_.power_mults.size() * axes_.vpi_levels.size() *
          axes_.imc_observed.size();
}

metrics::Signature SignatureLattice::default_base() {
  metrics::Signature s;
  s.valid = true;
  s.iter_time_s = 1.0;
  s.cpi = 0.5;
  s.tpi = 0.01;
  s.gbps = 50.0;
  s.dc_power_w = 320.0;
  s.avg_cpu_freq = common::Freq::ghz(2.40);
  s.avg_imc_freq = common::Freq::ghz(2.40);
  s.elapsed_s = 10.0;
  s.iterations = 10;
  return s;
}

SignatureLattice::Coords SignatureLattice::coords(std::size_t i) const {
  EAR_EXPECT_MSG(i < size_, "lattice index out of range");
  Coords c;
  c.cpi = i % axes_.cpi_mults.size();
  i /= axes_.cpi_mults.size();
  c.gbps = i % axes_.gbps_mults.size();
  i /= axes_.gbps_mults.size();
  c.power = i % axes_.power_mults.size();
  i /= axes_.power_mults.size();
  c.vpi = i % axes_.vpi_levels.size();
  i /= axes_.vpi_levels.size();
  c.imc = i;
  return c;
}

metrics::Signature SignatureLattice::at(std::size_t i) const {
  const Coords c = coords(i);
  metrics::Signature s = base_;
  s.cpi = base_.cpi * axes_.cpi_mults[c.cpi];
  s.gbps = base_.gbps * axes_.gbps_mults[c.gbps];
  s.dc_power_w = base_.dc_power_w * axes_.power_mults[c.power];
  s.vpi = axes_.vpi_levels[c.vpi];
  s.avg_imc_freq = axes_.imc_observed[c.imc];
  return s;
}

std::string SignatureLattice::describe(std::size_t i) const {
  const Coords c = coords(i);
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "cpi x%.2f, gbps x%.2f, pw x%.2f, vpi %.2f, imc %.2f GHz",
                axes_.cpi_mults[c.cpi], axes_.gbps_mults[c.gbps],
                axes_.power_mults[c.power], axes_.vpi_levels[c.vpi],
                axes_.imc_observed[c.imc].as_ghz());
  return buf;
}

}  // namespace ear::analysis
