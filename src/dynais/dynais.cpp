#include "dynais/dynais.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace ear::dynais {

namespace {
constexpr std::uint32_t kFnvPrime = 16777619u;

/// Distance the sliding recent_ window can travel before it is copied
/// back to the top of its buffer; sized so the amortised relocation cost
/// per push is negligible.
constexpr std::size_t kRecentSlack = 1024;
}  // namespace

std::uint32_t fnv_step(std::uint32_t h, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

void validate(const Config& cfg) {
  EAR_CHECK_MSG(cfg.window >= 4, "window too small");
  EAR_CHECK_MSG(cfg.min_repeats >= 1, "min_repeats must be >= 1");
  EAR_CHECK_MSG(
      cfg.max_period * (cfg.min_repeats + 1) <= cfg.window,
      "window must hold min_repeats+1 periods of the largest loop body");
}

// ---------------------------------------------------------------------------
// LevelDetector (incremental)
// ---------------------------------------------------------------------------

LevelDetector::LevelDetector(const Config& cfg) : cfg_(cfg) {
  validate(cfg_);
  EAR_CHECK_MSG(cfg_.min_repeats * cfg_.max_period <=
                    std::numeric_limits<std::uint32_t>::max(),
                "detection thresholds must fit the 32-bit counters");
  // Every lookback is bounded by the window (the config check above pins
  // (min_repeats+1)·max_period <= window), so a ring of the next power of
  // two holds all live history while indexing stays a single AND.
  std::size_t size = 1;
  while (size < cfg_.window) size <<= 1;
  buf_.assign(size, 0);
  mask_ = size - 1;
  // The slack must be at least max_period so the relocation memcpy never
  // overlaps itself.
  recent_.assign(cfg_.max_period + std::max(kRecentSlack, cfg_.max_period),
                 0);
  head_ = recent_.size() - cfg_.max_period;
  run_.assign(cfg_.max_period, 0);
  need_.reserve(cfg_.max_period);
  for (std::size_t p = 1; p <= cfg_.max_period; ++p) {
    need_.push_back(static_cast<std::uint32_t>(cfg_.min_repeats * p));
  }
}

void LevelDetector::reset() {
  count_ = 0;
  period_ = 0;
  since_iteration_ = 0;
  signature_ = 0;
  std::fill(run_.begin(), run_.end(), 0);
  head_ = recent_.size() - cfg_.max_period;
  runs_valid_ = true;
}

std::uint32_t LevelDetector::hash_last(std::size_t n) const {
  std::uint32_t h = kFnvOffset;
  for (std::size_t k = n; k-- > 0;) {
    h = fnv_step(h, buf_[(count_ - 1 - k) & mask_]);
  }
  return h;
}

void LevelDetector::rebuild_runs() {
  // The counters went stale while a loop was locked (loop tracking never
  // touches them). Recompute each streak by walking backwards from the
  // newest event, stopping at min_repeats·p matches: the detection test is
  // a >= threshold, so clamping a longer true streak at the threshold
  // preserves every future detection decision, and it bounds this rebuild
  // at O(max_period² · min_repeats) once per loop exit — amortised O(1)
  // against the loop's length.
  const std::size_t m = cfg_.max_period;
  const std::size_t have = std::min(m, count_);
  head_ = recent_.size() - m;
  for (std::size_t j = 0; j < have; ++j) {
    recent_[head_ + j] = buf_[(count_ - 1 - j) & mask_];
  }
  for (std::size_t p = 1; p <= m; ++p) {
    const std::size_t pairs_available = count_ > p ? count_ - p : 0;
    const std::size_t cap =
        std::min<std::size_t>(need_[p - 1], pairs_available);
    std::uint32_t r = 0;
    while (r < cap && buf_[(count_ - 1 - r) & mask_] ==
                          buf_[(count_ - 1 - r - p) & mask_]) {
      ++r;
    }
    run_[p - 1] = r;
  }
}

Status LevelDetector::push(std::uint32_t event) {
  buf_[count_ & mask_] = event;
  ++count_;

  if (period_ > 0) {
    // In a loop: the new event must continue the periodic pattern.
    const std::uint32_t expected = buf_[(count_ - 1 - period_) & mask_];
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

  const std::size_t m = cfg_.max_period;
  std::size_t hit = 0;
  if (!runs_valid_) {
    rebuild_runs();  // also refreshes recent_ (newest event at the front)
    runs_valid_ = true;
    for (std::size_t j = 0; j < m; ++j) {
      if (run_[j] >= need_[j]) {
        hit = j + 1;
        break;
      }
    }
  } else {
    // Steady state: one compare per candidate period extends or resets
    // its streak; the smallest period whose streak reaches min_repeats·p
    // pairs is the loop (smallest first, so nested repetition maps to
    // inner loops). A streak of min_repeats·p matching pairs needs
    // (min_repeats+1)·p events, so the reference's explicit count guard
    // is implied. recent_ holds the previous events contiguously
    // newest-first, so both passes are branch-light forward scans.
    const std::size_t pmax = count_ - 1 < m ? count_ - 1 : m;
    std::uint32_t* const run = run_.data();
    const std::uint32_t* const rec = recent_.data() + head_;
    const std::uint32_t* const need = need_.data();
    // One fused pass extends/resets every streak and OR-accumulates
    // whether any crossed its threshold; the smallest-period scan only
    // runs on the rare push where something did.
    std::uint32_t any = 0;
    for (std::size_t j = 0; j < pmax; ++j) {
      const std::uint32_t r = rec[j] == event ? run[j] + 1u : 0u;
      run[j] = r;
      any |= static_cast<std::uint32_t>(r >= need[j]);
    }
    if (any != 0) {
      for (std::size_t j = 0; j < pmax; ++j) {
        if (run[j] >= need[j]) {
          hit = j + 1;
          break;
        }
      }
    }
    if (head_ == 0) {
      std::memcpy(recent_.data() + recent_.size() - m, recent_.data(),
                  m * sizeof(std::uint32_t));
      head_ = recent_.size() - m;
    }
    --head_;
    recent_[head_] = event;
  }

  if (hit != 0) {
    period_ = hit;
    since_iteration_ = 0;
    signature_ = hash_last(hit);
    // Counters go stale from here until the loop breaks.
    runs_valid_ = false;
    return Status::kNewLoop;
  }
  return Status::kNoLoop;
}

}  // namespace ear::dynais
