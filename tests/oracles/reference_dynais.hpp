// The original rescan DynAIS level detector: the executable
// specification dynais::LevelDetector is differentially tested against.
// Every non-loop event rescans the window for the smallest period p whose
// last min_repeats·p events are p-periodic (O(max_period² · min_repeats)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynais/dynais.hpp"

namespace ear::dynais::oracle {

class ReferenceLevelDetector {
 public:
  explicit ReferenceLevelDetector(const Config& cfg);

  Status push(std::uint32_t event);

  [[nodiscard]] std::size_t period() const { return period_; }
  [[nodiscard]] bool in_loop() const { return period_ > 0; }
  [[nodiscard]] std::uint32_t loop_signature() const { return signature_; }

  void reset();

 private:
  [[nodiscard]] bool periodic_with(std::size_t p) const;
  [[nodiscard]] std::uint32_t hash_last(std::size_t n) const;

  Config cfg_;
  std::vector<std::uint32_t> buf_;  // circular
  std::size_t count_ = 0;
  std::size_t period_ = 0;
  std::size_t since_iteration_ = 0;
  std::uint32_t signature_ = 0;
};

/// The hierarchy EARL runs, driven by the reference level detector.
using ReferenceDynais = BasicDynais<ReferenceLevelDetector>;

}  // namespace ear::dynais::oracle
