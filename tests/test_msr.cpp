#include "simhw/msr.hpp"

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ear::simhw {
namespace {

using common::Freq;

TEST(UncoreRatioLimit, EncodeMatchesSdmLayout) {
  // 2.4 GHz max = ratio 24 in bits 6:0; 1.2 GHz min = ratio 12 in 14:8.
  const UncoreRatioLimit lim{.max_freq = Freq::ghz(2.4),
                             .min_freq = Freq::ghz(1.2)};
  EXPECT_EQ(lim.encode(), (12ull << 8) | 24ull);
}

TEST(UncoreRatioLimit, DecodeRoundTrip) {
  const UncoreRatioLimit lim{.max_freq = Freq::ghz(1.8),
                             .min_freq = Freq::ghz(1.2)};
  EXPECT_EQ(UncoreRatioLimit::decode(lim.encode()), lim);
}

/// Round-trip across the full 100 MHz grid the hardware supports.
class RatioRoundTrip
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RatioRoundTrip, EncodeDecode) {
  const auto [min_bins, max_bins] = GetParam();
  const UncoreRatioLimit lim{
      .max_freq = Freq::mhz(static_cast<std::uint64_t>(max_bins) * 100),
      .min_freq = Freq::mhz(static_cast<std::uint64_t>(min_bins) * 100)};
  EXPECT_EQ(UncoreRatioLimit::decode(lim.encode()), lim);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RatioRoundTrip,
    ::testing::Values(std::pair{12, 24}, std::pair{12, 12}, std::pair{24, 24},
                      std::pair{12, 13}, std::pair{20, 23}, std::pair{0, 127},
                      std::pair{15, 18}));

TEST(UncoreRatioLimit, OverflowingRatioRejected) {
  // Regression: a ratio over 127 used to spill into bit 7 and corrupt
  // the neighbouring field; it is refused outright.
  const UncoreRatioLimit lim{.max_freq = Freq::ghz(20.0),  // ratio 200 > 127
                             .min_freq = Freq::ghz(1.2)};
  EXPECT_THROW((void)lim.encode(), common::InvariantError);
}

TEST(UncoreRatioLimit, TopRatioFillsFieldWithoutSpill) {
  // Ratio 127 is the largest encodable value: all seven bits set, bit 7
  // (reserved) and the min field untouched.
  const UncoreRatioLimit lim{.max_freq = Freq::mhz(12'700),
                             .min_freq = Freq::ghz(1.2)};
  EXPECT_EQ(lim.encode(), (12ull << 8) | 0x7Full);
  EXPECT_EQ(UncoreRatioLimit::decode(lim.encode()), lim);
}

TEST(MsrFile, ReservedBitWriteRejected) {
  MsrFile msr;
  EXPECT_THROW(msr.write(kMsrUncoreRatioLimit, 0x80),  // bit 7 reserved
               common::ContractViolation);
  EXPECT_THROW(msr.write(kMsrUncoreRatioLimit, 0xFFFFull),
               common::ContractViolation);
  // A layout-correct raw value is accepted.
  EXPECT_NO_THROW(msr.write(kMsrUncoreRatioLimit, (12ull << 8) | 24ull));
}

TEST(MsrFile, UnknownRegisterReadsZero) {
  MsrFile msr;
  EXPECT_EQ(msr.read(0x123), 0u);
  // Until written: unmodelled registers live in a side table, and each
  // keeps its own value.
  msr.write(0x123, 42);
  msr.write(0x1A0, 7);
  EXPECT_EQ(msr.read(0x123), 42u);
  EXPECT_EQ(msr.read(0x1A0), 7u);
  EXPECT_EQ(msr.read(0x124), 0u);
  EXPECT_EQ(msr.read(kMsrEnergyPerfBias), 0u);
  EXPECT_EQ(msr.read(kMsrUncoreRatioLimit), 0u);
}

TEST(MsrFile, WriteThenRead) {
  // The two inline registers and an unmodelled one.
  const std::pair<std::uint32_t, std::uint64_t> writes[] = {
      {kMsrEnergyPerfBias, 6},
      {kMsrUncoreRatioLimit, (12ull << 8) | 24ull},
      {0x123, 0xABCD}};
  for (const auto& [addr, value] : writes) {
    MsrFile msr;
    msr.write(addr, value);
    EXPECT_EQ(msr.read(addr), value) << "MSR " << addr;
    EXPECT_EQ(msr.write_count(), 1u);
  }
}

TEST(MsrFile, UncoreLimitTypedAccess) {
  MsrFile msr;
  const UncoreRatioLimit lim{.max_freq = Freq::ghz(2.0),
                             .min_freq = Freq::ghz(1.2)};
  msr.set_uncore_limit(lim);
  EXPECT_EQ(msr.uncore_limit(), lim);
  EXPECT_EQ(msr.read(kMsrUncoreRatioLimit), lim.encode());
}

TEST(MsrFile, PinnedWindowMinEqualsMax) {
  MsrFile msr;
  msr.set_uncore_limit({.max_freq = Freq::ghz(1.7),
                        .min_freq = Freq::ghz(1.7)});
  const auto lim = msr.uncore_limit();
  EXPECT_EQ(lim.min_freq, lim.max_freq);
}

TEST(MsrFile, InvertedWindowRejected) {
  MsrFile msr;
  EXPECT_THROW(msr.set_uncore_limit({.max_freq = Freq::ghz(1.2),
                                     .min_freq = Freq::ghz(2.4)}),
               common::InvariantError);
}

}  // namespace
}  // namespace ear::simhw
