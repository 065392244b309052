#include "common/units.hpp"

#include <gtest/gtest.h>

namespace ear::common {
namespace {

TEST(Freq, ConstructionAndConversion) {
  EXPECT_EQ(Freq::ghz(2.4).as_khz(), 2'400'000u);
  EXPECT_EQ(Freq::mhz(100).as_khz(), 100'000u);
  EXPECT_EQ(Freq::khz(123).as_khz(), 123u);
  EXPECT_DOUBLE_EQ(Freq::ghz(2.4).as_ghz(), 2.4);
  EXPECT_DOUBLE_EQ(Freq::mhz(2400).as_hz(), 2.4e9);
  EXPECT_EQ(Freq::ghz(2.4).as_mhz(), 2400u);
}

TEST(Freq, RoundsToNearestKhz) {
  // 2.39999999 GHz should not truncate down a whole kHz.
  EXPECT_EQ(Freq::ghz(2.39999999).as_khz(), 2'400'000u);
}

TEST(Freq, GhzRoundingEdgeCases) {
  // Values straddling a kHz boundary round to nearest, not down.
  EXPECT_EQ(Freq::ghz(2.4999).as_khz(), 2'499'900u);
  EXPECT_EQ(Freq::ghz(2.49999999).as_khz(), 2'500'000u);
  EXPECT_EQ(Freq::ghz(0.0000006).as_khz(), 1u);  // rounds to nearest
  EXPECT_EQ(Freq::ghz(0.0000004).as_khz(), 0u);
}

TEST(Freq, ImcGridRoundTripsThroughGhz) {
  // Every 0.1 GHz IMC bin in the paper's window must survive the
  // double → kHz → double round trip exactly: the MSR ratio encoding
  // divides by 100 MHz and any drift would land in the wrong bin.
  for (int r = 8; r <= 30; ++r) {
    const Freq f = Freq::ghz(static_cast<double>(r) / 10.0);
    EXPECT_EQ(f.as_khz(), static_cast<std::uint64_t>(r) * 100'000u) << r;
    EXPECT_EQ(Freq::ghz(f.as_ghz()), f) << r;
    EXPECT_EQ(f.as_mhz(), static_cast<std::uint64_t>(r) * 100u) << r;
  }
}

TEST(Freq, Comparisons) {
  EXPECT_LT(Freq::ghz(1.2), Freq::ghz(2.4));
  EXPECT_EQ(Freq::mhz(2400), Freq::ghz(2.4));
  EXPECT_GE(Freq::ghz(2.4), Freq::mhz(2400));
}

TEST(Freq, SubtractionUnderflowIsAContractViolation) {
  const Freq small = Freq::mhz(100);
  const Freq big = Freq::ghz(1.0);
  EXPECT_THROW((void)(small - big), ContractViolation);
  EXPECT_EQ((big - small), Freq::mhz(900));
}

TEST(Freq, RatioTo) {
  EXPECT_DOUBLE_EQ(Freq::ghz(2.4).ratio_to(Freq::ghz(1.2)), 2.0);
  EXPECT_DOUBLE_EQ(Freq::ghz(1.2).ratio_to(Freq::ghz(2.4)), 0.5);
  EXPECT_DOUBLE_EQ(Freq::ghz(1.0).ratio_to(Freq()), 0.0);
}

TEST(Freq, IsZero) {
  EXPECT_TRUE(Freq().is_zero());
  EXPECT_FALSE(Freq::khz(1).is_zero());
}

TEST(Freq, Str) {
  EXPECT_EQ(Freq::ghz(2.4).str(), "2.40GHz");
  EXPECT_EQ(Freq::mhz(800).str(), "800MHz");
}

TEST(Energy, PowerTimesTime) {
  const Joules e = Watts{100.0} * Secs{10.0};
  EXPECT_DOUBLE_EQ(e.value, 1000.0);
  EXPECT_DOUBLE_EQ((Secs{10.0} * Watts{100.0}).value, 1000.0);
}

TEST(Energy, AveragePower) {
  const Watts p = Joules{1000.0} / Secs{10.0};
  EXPECT_DOUBLE_EQ(p.value, 100.0);
  EXPECT_DOUBLE_EQ((Joules{1.0} / Secs{0.0}).value, 0.0);
}

TEST(Energy, Accumulation) {
  Joules e{};
  e += Joules{5.0};
  e += Joules{7.0};
  EXPECT_DOUBLE_EQ(e.value, 12.0);
  Watts w{};
  w += Watts{3.5};
  EXPECT_DOUBLE_EQ(w.value, 3.5);
  Secs s{1.0};
  s += Secs{2.0};
  EXPECT_DOUBLE_EQ(s.value, 3.0);
}

TEST(Energy, ArithmeticAndComparison) {
  EXPECT_DOUBLE_EQ((Watts{5} + Watts{6}).value, 11.0);
  EXPECT_DOUBLE_EQ((Watts{5} - Watts{6}).value, -1.0);
  EXPECT_LT(Joules{1.0}, Joules{2.0});
  EXPECT_GT(Secs{3.0}, Secs{2.0});
}

}  // namespace
}  // namespace ear::common
