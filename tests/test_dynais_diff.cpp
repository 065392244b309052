// Differential proof that the incremental LevelDetector is observably
// identical to the reference rescan implementation: golden, random
// (10^6 events) and adversarial almost-periodic streams all produce the
// same Status/period/in_loop/signature sequence from both detectors, and
// the hierarchical Dynais/ReferenceDynais pair agrees on every Result.
#include "dynais/dynais.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "oracles/reference_dynais.hpp"

namespace ear::dynais {
namespace {

using oracle::ReferenceDynais;
using oracle::ReferenceLevelDetector;

void expect_identical(const Config& cfg,
                      const std::vector<std::uint32_t>& events) {
  LevelDetector fast(cfg);
  ReferenceLevelDetector ref(cfg);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Status a = fast.push(events[i]);
    const Status b = ref.push(events[i]);
    ASSERT_EQ(static_cast<int>(a), static_cast<int>(b)) << "event " << i;
    ASSERT_EQ(fast.period(), ref.period()) << "event " << i;
    ASSERT_EQ(fast.in_loop(), ref.in_loop()) << "event " << i;
    ASSERT_EQ(fast.loop_signature(), ref.loop_signature()) << "event " << i;
  }
}

void expect_identical_hierarchy(const Config& cfg,
                                const std::vector<std::uint32_t>& events) {
  Dynais fast(cfg);
  ReferenceDynais ref(cfg);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto a = fast.push(events[i]);
    const auto b = ref.push(events[i]);
    ASSERT_EQ(static_cast<int>(a.status), static_cast<int>(b.status))
        << "event " << i;
    ASSERT_EQ(a.level, b.level) << "event " << i;
    ASSERT_EQ(a.period, b.period) << "event " << i;
    ASSERT_EQ(fast.in_loop(), ref.in_loop()) << "event " << i;
  }
}

std::vector<std::uint32_t> random_stream(std::size_t n,
                                         std::uint32_t alphabet,
                                         std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::uint32_t> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(static_cast<std::uint32_t>(rng.below(alphabet)));
  }
  return events;
}

/// Almost-periodic adversary: long periodic stretches of every candidate
/// period with a corruption just before (and just after) the detector
/// would lock on, maximising lock/break churn and counter rebuilds.
std::vector<std::uint32_t> adversarial_stream(const Config& cfg,
                                              std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::uint32_t> events;
  std::uint32_t junk = 1'000'000;
  for (std::size_t p = 1; p <= cfg.max_period; ++p) {
    for (int round = 0; round < 6; ++round) {
      // One period's worth of ids, repeated; corrupt one position at a
      // varying offset around the min_repeats boundary.
      const std::size_t reps = cfg.min_repeats + 2 +
                               static_cast<std::size_t>(rng.below(3));
      const std::size_t corrupt_at =
          cfg.min_repeats * p > 0
              ? (cfg.min_repeats * p - 1) + rng.below(2 * p + 1)
              : 0;
      for (std::size_t i = 0; i < reps * p; ++i) {
        std::uint32_t v = static_cast<std::uint32_t>(100 + p * 31 + i % p);
        if (i == corrupt_at) v = junk++;
        events.push_back(v);
      }
      // Separator noise so rounds don't accidentally concatenate into a
      // longer period.
      const std::size_t pad = rng.below(3);
      for (std::size_t i = 0; i < pad; ++i) events.push_back(junk++);
    }
  }
  return events;
}

TEST(DynaisDiff, GoldenStreams) {
  const Config cfg{};
  // Simple period-3 loop with entry/exit noise.
  std::vector<std::uint32_t> simple{9, 8, 1, 2, 3, 1, 2, 3, 1, 2, 3,
                                    1, 2, 3, 1, 2, 3, 7, 7, 9};
  expect_identical(cfg, simple);
  expect_identical_hierarchy(cfg, simple);

  // Back-to-back loops of different periods (kEndLoop -> re-detection).
  std::vector<std::uint32_t> chained;
  for (int r = 0; r < 8; ++r) {
    for (std::uint32_t v : {10u, 11u}) chained.push_back(v);
  }
  for (int r = 0; r < 8; ++r) {
    for (std::uint32_t v : {20u, 21u, 22u, 23u, 24u}) chained.push_back(v);
  }
  chained.push_back(99);
  expect_identical(cfg, chained);
  expect_identical_hierarchy(cfg, chained);

  // Constant stream: period-1 loop from the start.
  expect_identical(cfg, std::vector<std::uint32_t>(64, 5));
}

TEST(DynaisDiff, RandomMillionEvents) {
  const Config cfg{};
  // A small alphabet makes accidental periodicity (and thus lock/break
  // churn) frequent; a larger one exercises the mostly-no-loop path.
  expect_identical(cfg, random_stream(1'000'000, 3, 0xD1FF01));
  expect_identical(cfg, random_stream(1'000'000, 8, 0xD1FF02));
}

TEST(DynaisDiff, RandomHierarchical) {
  const Config cfg{};
  expect_identical_hierarchy(cfg, random_stream(250'000, 3, 0xD1FF03));
  expect_identical_hierarchy(cfg, random_stream(250'000, 16, 0xD1FF04));
}

TEST(DynaisDiff, AdversarialAlmostPeriodic) {
  const Config cfg{};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_identical(cfg, adversarial_stream(cfg, seed));
    expect_identical_hierarchy(cfg, adversarial_stream(cfg, seed + 100));
  }
}

TEST(DynaisDiff, ConfigSweep) {
  // Non-default geometries: minimal windows, min_repeats 1 and 3, a
  // non-power-of-two window (the fast ring rounds up internally).
  const Config configs[] = {
      {.window = 4, .max_period = 2, .min_repeats = 1, .levels = 1},
      {.window = 12, .max_period = 3, .min_repeats = 3, .levels = 2},
      {.window = 33, .max_period = 8, .min_repeats = 2, .levels = 2},
      {.window = 96, .max_period = 12, .min_repeats = 3, .levels = 3},
  };
  for (const Config& cfg : configs) {
    expect_identical(cfg, random_stream(100'000, 3, cfg.window * 7919));
    expect_identical(cfg, adversarial_stream(cfg, cfg.window));
    expect_identical_hierarchy(cfg,
                               random_stream(50'000, 4, cfg.window + 13));
  }
}

TEST(DynaisDiff, ResetMatchesToo) {
  const Config cfg{};
  LevelDetector fast(cfg);
  ReferenceLevelDetector ref(cfg);
  const auto events = random_stream(10'000, 3, 0xD1FF05);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(static_cast<int>(fast.push(events[i])),
              static_cast<int>(ref.push(events[i])));
    if (i % 997 == 0) {
      fast.reset();
      ref.reset();
    }
    ASSERT_EQ(fast.period(), ref.period());
    ASSERT_EQ(fast.loop_signature(), ref.loop_signature());
  }
}

}  // namespace
}  // namespace ear::dynais
