#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "simhw/inm.hpp"
#include "simhw/rapl.hpp"

namespace ear::simhw {
namespace {

using common::Joules;
using common::Secs;

TEST(Rapl, DepositAccumulates) {
  RaplCounter c;
  c.deposit(Joules{1.0});
  EXPECT_NEAR(static_cast<double>(c.raw()) * RaplCounter::kJoulesPerUnit,
              1.0, RaplCounter::kJoulesPerUnit);
}

TEST(Rapl, SubUnitResidueIsNotLost) {
  RaplCounter c;
  // Deposit half a unit many times; the total must keep up.
  const Joules half_unit{RaplCounter::kJoulesPerUnit / 2.0};
  for (int i = 0; i < 1000; ++i) c.deposit(half_unit);
  EXPECT_NEAR(static_cast<double>(c.raw()), 500.0, 1.0);
}

TEST(Rapl, NegativeDepositThrows) {
  RaplCounter c;
  EXPECT_THROW(c.deposit(Joules{-1.0}), common::InvariantError);
}

TEST(Rapl, DeltaNoWrap) {
  EXPECT_NEAR(RaplCounter::delta(100, 300).value,
              200.0 * RaplCounter::kJoulesPerUnit, 1e-12);
}

TEST(Rapl, DeltaAcrossWrap) {
  // after < before means the 32-bit counter wrapped exactly once.
  const std::uint32_t before = 0xFFFFFF00u;
  const std::uint32_t after = 0x00000100u;
  const double units = static_cast<double>(0x100u + 0x100u);
  EXPECT_NEAR(RaplCounter::delta(before, after).value,
              units * RaplCounter::kJoulesPerUnit, 1e-9);
}

TEST(Rapl, CounterActuallyWraps) {
  RaplCounter c;
  // kWrap units is ~262 kJ; two big deposits push it past the wrap.
  const double wrap_joules =
      static_cast<double>(RaplCounter::kWrap) * RaplCounter::kJoulesPerUnit;
  const std::uint32_t r0 = c.raw();
  c.deposit(Joules{wrap_joules * 0.75});
  const std::uint32_t r1 = c.raw();
  c.deposit(Joules{wrap_joules * 0.75});
  const std::uint32_t r2 = c.raw();
  EXPECT_GT(r1, r0);
  EXPECT_LT(r2, r1);  // wrapped
  // Wrap-aware delta still recovers the energy.
  EXPECT_NEAR(RaplCounter::delta(r1, r2).value, wrap_joules * 0.75,
              wrap_joules * 1e-6);
}

TEST(RaplDomains, PerSocketAndDram) {
  RaplDomains d(2);
  d.deposit_pkg(0, Joules{10.0});
  d.deposit_pkg(1, Joules{20.0});
  d.deposit_dram(Joules{5.0});
  EXPECT_GT(d.pkg(1).raw(), d.pkg(0).raw());
  EXPECT_GT(d.dram().raw(), 0u);
  EXPECT_EQ(d.sockets(), 2u);
  EXPECT_THROW(d.deposit_pkg(2, Joules{1.0}), common::InvariantError);
}

// The accumulator counts 2^-30 J: the RAPL register is a shift of it,
// and running past 64 bits fails a check instead of wrapping.
TEST(Rapl, RegisterIsAShiftOfTheFixedPointCounter) {
  RaplCounter c;
  c.add(std::uint64_t{3} << 16);  // three register units
  EXPECT_EQ(c.raw(), 3u);
  c.add((std::uint64_t{1} << 16) - 1);  // one count short of a fourth
  EXPECT_EQ(c.raw(), 3u);
  c.add(1);
  EXPECT_EQ(c.raw(), 4u);
}

TEST(Rapl, OverflowFailsACheckInsteadOfWrapping) {
  RaplCounter c;
  c.add(~std::uint64_t{0} - 1);
  EXPECT_THROW(c.add(2), common::InvariantError);
  // A single deposit beyond 2^64 counts (1.7e10 J) is refused too.
  RaplCounter d;
  EXPECT_THROW(d.deposit(Joules{2e10}), common::InvariantError);
}

TEST(Inm, RepeatedDepositsAddInOneStep) {
  NodeManagerCounter one, many;
  for (int i = 0; i < 10; ++i) one.deposit(Joules{70.0}, Secs{0.3});
  many.add(to_energy_counts(Joules{70.0}), Secs{0.3}, 10);
  EXPECT_EQ(one.counts(), many.counts());
  EXPECT_EQ(one.read_joules(), many.read_joules());
  EXPECT_EQ(one.elapsed().value, many.elapsed().value);
  EXPECT_THROW(many.add(~std::uint64_t{0}, Secs{1.0}, 1),
               common::InvariantError);
}

// A single deposit takes the inline path, without the replay loop; it
// must leave the counter exactly as a one-round replay does, across
// second boundaries landed on exactly (the first 40 deposits of 0.25 s),
// crossed and missed.
TEST(Inm, SingleDepositEqualsOneRoundReplay) {
  NodeManagerCounter single, replay;
  common::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double dt = i < 40        ? 0.25
                      : i % 11 == 0 ? 0.0
                                    : rng.uniform(0.0, 1.5);
    const std::uint64_t counts = rng.below(std::uint64_t{1} << 40);
    single.add(counts, Secs{dt});
    replay.add(counts, Secs{dt}, 1);
    ASSERT_EQ(single.counts(), replay.counts()) << i;
    ASSERT_EQ(single.read_joules(), replay.read_joules()) << i;
    ASSERT_EQ(single.elapsed().value, replay.elapsed().value) << i;
  }
  EXPECT_THROW(single.add(1, Secs{-0.5}), common::InvariantError);
}

TEST(Inm, PublishesOnlyAtWholeSeconds) {
  NodeManagerCounter inm;
  inm.deposit(Joules{100.0}, Secs{0.4});
  EXPECT_EQ(inm.read_joules(), 0u);  // not yet a full second
  inm.deposit(Joules{100.0}, Secs{0.4});
  EXPECT_EQ(inm.read_joules(), 0u);
  inm.deposit(Joules{100.0}, Secs{0.4});  // crosses t=1.0
  EXPECT_GT(inm.read_joules(), 0u);
  // The published value reflects energy up to the boundary, not beyond.
  EXPECT_LE(inm.read_joules(), 300u);
  EXPECT_NEAR(static_cast<double>(inm.read_joules()), 250.0, 2.0);
}

TEST(Inm, ExactGroundTruthAlwaysCurrent) {
  NodeManagerCounter inm;
  inm.deposit(Joules{42.0}, Secs{0.1});
  EXPECT_DOUBLE_EQ(inm.exact().value, 42.0);
  EXPECT_DOUBLE_EQ(inm.elapsed().value, 0.1);
}

TEST(Inm, LongWindowAveragePowerIsAccurate) {
  NodeManagerCounter inm;
  // 300 W for 20 s in odd-sized chunks.
  for (int i = 0; i < 64; ++i) inm.deposit(Joules{93.75}, Secs{0.3125});
  const double avg =
      static_cast<double>(inm.read_joules()) / 20.0;  // published
  EXPECT_NEAR(avg, 300.0, 1.0);
}

TEST(Inm, RejectsNegative) {
  NodeManagerCounter inm;
  EXPECT_THROW(inm.deposit(Joules{-1.0}, Secs{1.0}),
               common::InvariantError);
  EXPECT_THROW(inm.deposit(Joules{1.0}, Secs{-1.0}),
               common::InvariantError);
}

}  // namespace
}  // namespace ear::simhw
