// Deterministic pseudo-random number generation for reproducible
// experiments. SplitMix64 for seeding, xoshiro256** as the workhorse —
// fast, high quality, and the sequence is identical across platforms
// (unlike std::default_random_engine / distributions).
#pragma once

#include <array>
#include <cstdint>

namespace ear::common {

/// SplitMix64: used to expand a single user seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Collision-resistant derivation of a per-run seed from a user seed and
/// a run index. A linear rule (seed + r*stride) aliases whenever two user
/// seeds differ by a multiple of the stride; mixing each input through
/// the full SplitMix64 finalizer first destroys that arithmetic
/// structure, so distinct (seed, run) pairs get unrelated streams.
constexpr std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t run) {
  SplitMix64 a(seed);
  SplitMix64 b(a.next() ^ (run + 0x9e3779b97f4a7c15ULL));
  return b.next();
}

/// xoshiro256** generator with convenience floating-point draws.
class Rng {
 public:
  /// The generator's whole state: a stream resumes from it exactly.
  using State = std::array<std::uint64_t, 4>;

  explicit constexpr Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  /// The stream that continues from `state` (a state() taken earlier).
  static constexpr Rng resume(const State& state) { return Rng(state); }
  [[nodiscard]] constexpr const State& state() const { return s_; }

  constexpr std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    step();
    return result;
  }

  /// Advance the stream past `n` draws without producing them: the state
  /// transition of next_u64() without its output scrambler.
  constexpr void discard(std::uint64_t n) {
    for (; n > 0; --n) step();
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Approximately standard normal draw (sum of 12 uniforms, Irwin-Hall).
  /// Plenty for run-to-run measurement noise; avoids libm divergence.
  constexpr double normal() {
    double acc = 0.0;
    for (int i = 0; i < 12; ++i) acc += uniform();
    return acc - 6.0;
  }

  /// Normal draw with given mean and standard deviation.
  constexpr double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Uniform integer in [0, n).
  constexpr std::uint64_t below(std::uint64_t n) {
    return n == 0 ? 0 : next_u64() % n;
  }

 private:
  explicit constexpr Rng(const State& state) : s_(state) {}

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  constexpr void step() {
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
  }
  State s_{};
};

}  // namespace ear::common
