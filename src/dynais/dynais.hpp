// DynAIS: Dynamic Application Iterative Structure detection.
//
// EAR's loop detector consumes the per-process stream of MPI event ids and
// reports, without any user hints, when the process enters a loop, when a
// new iteration of that loop starts, and when the loop ends. This is the
// mechanism that lets EARL attribute signatures to iterations ("with
// direct knowledge of time penalty", §VII).
//
// Algorithm: windowed periodicity detection. A sliding window of the most
// recent W events is scanned for the smallest period p (1 <= p <= W/2)
// such that the last `min_repeats * p` events are p-periodic. Detection
// has hysteresis: a loop is only declared after the periodicity has held
// for `min_repeats` full periods, and is dropped after the first
// non-matching event. A second level runs the same detection over the
// sequence of level-0 loop signatures (hashes of one period), detecting
// outer loops whose bodies are themselves loops.
//
// `LevelDetector` maintains one rolling match-run counter per candidate
// period (the length of the streak of consecutive events that each match
// the event one period earlier), so a non-loop event costs O(max_period)
// instead of a rescan's O(max_period² · min_repeats). The ring buffer is
// rounded up to a power of two so indexing is a mask, not a `%`. The
// original rescan detector is the executable specification; it lives
// with the test oracles (tests/oracles/reference_dynais.hpp), and the
// differential tests drive both with identical streams and assert
// identical outputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace ear::dynais {

/// What the detector reports for each consumed event.
enum class Status {
  kNoLoop,        // no periodic structure at the moment
  kInLoop,        // inside a detected loop, mid-iteration
  kNewIteration,  // this event starts a new iteration of the current loop
  kNewLoop,       // a loop has just been detected (first full period seen)
  kEndLoop,       // the current loop's periodicity just broke
};

struct Config {
  std::size_t window = 96;      // events kept for period search
  std::size_t max_period = 24;  // largest loop body length considered
  std::size_t min_repeats = 2;  // periods required before declaring a loop
  std::size_t levels = 2;       // hierarchy depth (outer-loop detection)
};

/// Single-level periodicity detector (incremental, production).
///
/// Invariant while not in a loop and `runs_valid_`: `run_[p]` is the
/// length of the streak of consecutive matching pairs
/// (event[i] == event[i-p]) ending at the newest event, clamped below by
/// the rebuild cap (see dynais.cpp). The reference condition "the last
/// min_repeats·p events are p-periodic" is exactly `run_[p] >=
/// min_repeats·p`: a streak of that many matching pairs pins every event
/// in the last min_repeats·p positions to its predecessor one period
/// earlier. While a loop is locked the counters are left stale (loop
/// tracking itself is O(1)) and rebuilt by one bounded backward scan on
/// the first event after the loop breaks, keeping the amortised per-event
/// cost O(max_period).
class LevelDetector {
 public:
  explicit LevelDetector(const Config& cfg);

  Status push(std::uint32_t event);

  [[nodiscard]] std::size_t period() const { return period_; }
  [[nodiscard]] bool in_loop() const { return period_ > 0; }
  /// Hash of one loop body (valid while in_loop()).
  [[nodiscard]] std::uint32_t loop_signature() const { return signature_; }

  void reset();

 private:
  void rebuild_runs();
  [[nodiscard]] std::uint32_t hash_last(std::size_t n) const;

  Config cfg_;
  std::vector<std::uint32_t> buf_;  // circular, power-of-two size
  std::size_t mask_ = 0;            // buf_.size() - 1
  /// recent_[head_ + j] is the event j+1 positions back: a contiguous
  /// newest-first mirror of the last max_period ring entries, kept so the
  /// candidate scan is a forward pass with no wrap arithmetic (and
  /// vectorizable). Pushes write backwards (one store, no shifting); the
  /// window is memcpy'd back to the top of the buffer when head_ reaches
  /// zero, once per ~slack pushes. Only maintained on the search path;
  /// rebuilt from the ring after a loop.
  std::vector<std::uint32_t> recent_;
  std::size_t head_ = 0;
  std::vector<std::uint32_t> run_;   // match-run streak per candidate p-1
  std::vector<std::uint32_t> need_;  // detection threshold min_repeats*p
  bool runs_valid_ = true;           // false while counters are loop-stale
  std::size_t count_ = 0;            // total events consumed
  std::size_t period_ = 0;           // 0 = no loop
  std::size_t since_iteration_ = 0;  // events since last iteration mark
  std::uint32_t signature_ = 0;
};

/// Throws unless `cfg` is a valid level-detector config: a window of at
/// least 4 events that holds min_repeats+1 periods of the largest body.
void validate(const Config& cfg);

/// Loop signatures hash one loop body with 32-bit FNV-1a: start from
/// kFnvOffset and fold each event in with fnv_step (its four bytes, low
/// byte first).
inline constexpr std::uint32_t kFnvOffset = 2166136261u;
[[nodiscard]] std::uint32_t fnv_step(std::uint32_t h, std::uint32_t v);

/// The full hierarchical detector EARL uses, parameterised on the level
/// detector so the reference implementation can drive the identical
/// hierarchy in differential tests.
template <class Level>
class BasicDynais {
 public:
  explicit BasicDynais(Config cfg = {}) : cfg_(cfg) {
    EAR_CHECK_MSG(cfg_.levels >= 1, "need at least one level");
    levels_.reserve(cfg_.levels);
    for (std::size_t i = 0; i < cfg_.levels; ++i) levels_.emplace_back(cfg_);
  }

  /// Consume one event; returns the innermost-level status plus, when a
  /// new iteration is detected, the level it occurred at (0 = innermost).
  struct Result {
    Status status = Status::kNoLoop;
    std::size_t level = 0;
    std::size_t period = 0;
  };

  Result push(std::uint32_t event) {
    // Feed level 0 with the raw event; iteration boundaries at level k feed
    // the loop signature into level k+1, detecting outer loops whose bodies
    // are themselves loops.
    Result best{};
    std::uint32_t value = event;
    for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
      const Status s = levels_[lvl].push(value);
      if (s == Status::kNewLoop || s == Status::kNewIteration ||
          s == Status::kEndLoop) {
        // Report the outermost boundary seen this push.
        best = Result{.status = s,
                      .level = lvl,
                      .period = levels_[lvl].period()};
      } else if (lvl == 0 && best.status == Status::kNoLoop) {
        best = Result{.status = s, .level = 0, .period = levels_[0].period()};
      }
      const bool propagate =
          (s == Status::kNewIteration || s == Status::kNewLoop) &&
          lvl + 1 < levels_.size();
      if (!propagate) break;
      value = levels_[lvl].loop_signature();
    }
    return best;
  }

  [[nodiscard]] bool in_loop() const {
    for (const auto& l : levels_) {
      if (l.in_loop()) return true;
    }
    return false;
  }
  [[nodiscard]] const Config& config() const { return cfg_; }

  void reset() {
    for (auto& l : levels_) l.reset();
  }

 private:
  Config cfg_;
  std::vector<Level> levels_;
};

using Dynais = BasicDynais<LevelDetector>;

}  // namespace ear::dynais
