// The abstract input space of the eUFS model checker (§V-B, Fig. 2).
//
// A policy consumes nothing but signatures, so its behaviour over *all*
// workloads is the behaviour over all signature sequences. That space is
// uncountable; the lattice quantises it into the finitely many points the
// policy can actually distinguish: CPI and GB/s deltas straddling the
// uncore guard threshold (±unc_policy_th) and the phase-change threshold
// (±sig_change_th), power deltas, the AVX512 VPI classes, and the
// observed (hardware-selected) IMC frequency on the uncore grid. Every
// point is a fully formed metrics::Signature, so the checker can feed the
// real policy object through the ordinary policy_api entry points.
//
// Enumeration is index-based and deterministic: point i is a pure
// function of (base, axes, i), which is what makes replays bitwise
// reproducible and counterexample traces exchangeable between runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "metrics/signature.hpp"

namespace ear::analysis {

/// One multiplier (or level) per axis; the lattice is their cross product.
struct LatticeAxes {
  /// CPI multipliers applied to the base CPI. Defaults straddle both the
  /// 2% uncore guard and the 15% phase-change threshold in each
  /// direction.
  std::vector<double> cpi_mults{0.80, 0.97, 1.00, 1.03, 1.20};
  /// GB/s multipliers; 0.97 is inside the default bandwidth guard
  /// (ref * (1 - 0.02)), 0.99 is not.
  std::vector<double> gbps_mults{0.80, 0.97, 0.99, 1.00, 1.20};
  /// DC power multipliers (shift the energy-model inputs).
  std::vector<double> power_mults{0.95, 1.10};
  /// AVX512 instruction mix: none, and a heavy-vector class that drives
  /// the licence-capped P-states.
  std::vector<double> vpi_levels{0.0, 0.35};
  /// Hardware-selected average uncore clocks (the HW-guided search start).
  std::vector<common::Freq> imc_observed{
      common::Freq::ghz(1.4), common::Freq::ghz(2.0), common::Freq::ghz(2.4)};
};

class SignatureLattice {
 public:
  SignatureLattice(metrics::Signature base, LatticeAxes axes);

  /// The paper's nominal signature shape (BQCD-like: CPI 0.5, 50 GB/s,
  /// 320 W, 1 s iterations) as the neutral centre of the lattice.
  [[nodiscard]] static metrics::Signature default_base();

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Point i as a complete, valid signature. Deterministic in i.
  [[nodiscard]] metrics::Signature at(std::size_t i) const;

  /// Human-readable coordinates of point i for counterexample traces,
  /// e.g. "cpi x1.03, gbps x0.97, pw x1.10, vpi 0.35, imc 2.00 GHz".
  [[nodiscard]] std::string describe(std::size_t i) const;

  [[nodiscard]] const LatticeAxes& axes() const { return axes_; }

 private:
  struct Coords {
    std::size_t cpi, gbps, power, vpi, imc;
  };
  [[nodiscard]] Coords coords(std::size_t i) const;

  metrics::Signature base_;
  LatticeAxes axes_;
  std::size_t size_ = 0;
};

}  // namespace ear::analysis
