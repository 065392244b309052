#include "oracles/reference_dynais.hpp"

namespace ear::dynais::oracle {

ReferenceLevelDetector::ReferenceLevelDetector(const Config& cfg) : cfg_(cfg) {
  validate(cfg_);
  buf_.assign(cfg_.window, 0);
}

void ReferenceLevelDetector::reset() {
  count_ = 0;
  period_ = 0;
  since_iteration_ = 0;
  signature_ = 0;
}

bool ReferenceLevelDetector::periodic_with(std::size_t p) const {
  if (count_ < (cfg_.min_repeats + 1) * p) return false;
  for (std::size_t k = 0; k < cfg_.min_repeats * p; ++k) {
    const std::uint32_t a = buf_[(count_ - 1 - k) % cfg_.window];
    const std::uint32_t b = buf_[(count_ - 1 - k - p) % cfg_.window];
    if (a != b) return false;
  }
  return true;
}

std::uint32_t ReferenceLevelDetector::hash_last(std::size_t n) const {
  std::uint32_t h = kFnvOffset;
  for (std::size_t k = n; k-- > 0;) {
    h = fnv_step(h, buf_[(count_ - 1 - k) % cfg_.window]);
  }
  return h;
}

Status ReferenceLevelDetector::push(std::uint32_t event) {
  buf_[count_ % cfg_.window] = event;
  ++count_;

  if (period_ > 0) {
    // In a loop: the new event must continue the periodic pattern.
    const std::uint32_t expected =
        buf_[(count_ - 1 - period_) % cfg_.window];
    if (event == expected) {
      ++since_iteration_;
      if (since_iteration_ == period_) {
        since_iteration_ = 0;
        return Status::kNewIteration;
      }
      return Status::kInLoop;
    }
    period_ = 0;
    since_iteration_ = 0;
    signature_ = 0;
    return Status::kEndLoop;
  }

  // Not in a loop: look for the smallest period that explains the recent
  // history (smallest first, so nested repetition maps to inner loops).
  for (std::size_t p = 1; p <= cfg_.max_period; ++p) {
    if (periodic_with(p)) {
      period_ = p;
      since_iteration_ = 0;
      signature_ = hash_last(p);
      return Status::kNewLoop;
    }
  }
  return Status::kNoLoop;
}

}  // namespace ear::dynais::oracle
