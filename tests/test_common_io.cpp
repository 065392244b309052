#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace ear::common {
namespace {

TEST(Csv, PlainRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row({"1", "2"});
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Csv, EscapesSeparatorsAndQuotes) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row({"x,y", "he said \"hi\"", "line\nbreak", "plain"});
  EXPECT_EQ(out.str(),
            "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\",plain\n");
}

TEST(Csv, NumFormatting) {
  EXPECT_EQ(CsvWriter::num(3.14159, 2), "3.14");
  EXPECT_EQ(CsvWriter::num(2.0, 0), "2");
}

TEST(ExactDouble, RoundTripsFullPrecision) {
  // Locale-independent shortest round-trip form (std::to_chars): parsing
  // the rendered string must recover the identical bit pattern, even for
  // values a fixed-precision printf mangles.
  for (double v : {0.1 + 0.2, 1.0 / 3.0, -2.2250738585072014e-308,
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::denorm_min(), -0.0, 0.0,
                   12345.678901234567}) {
    double back = 99.0;
    ASSERT_TRUE(parse_exact_double(exact_double(v), &back))
        << exact_double(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << exact_double(v);
  }
}

TEST(ExactDouble, NonFiniteValues) {
  EXPECT_EQ(exact_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(exact_double(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(exact_double(std::numeric_limits<double>::quiet_NaN()), "nan");
  double back = 0.0;
  ASSERT_TRUE(parse_exact_double("inf", &back));
  EXPECT_TRUE(std::isinf(back));
  ASSERT_TRUE(parse_exact_double("-inf", &back));
  EXPECT_TRUE(std::isinf(back) && back < 0.0);
  ASSERT_TRUE(parse_exact_double("nan", &back));
  EXPECT_TRUE(std::isnan(back));
}

TEST(ExactDouble, RejectsTrailingGarbage) {
  double back = 0.0;
  EXPECT_FALSE(parse_exact_double("1.5x", &back));
  EXPECT_FALSE(parse_exact_double("", &back));
  EXPECT_FALSE(parse_exact_double("  2.0", &back));  // no skip-whitespace
}

TEST(Table, RendersAlignedColumns) {
  AsciiTable t("Title");
  t.columns({"name", "value"});
  t.add_row({"x", "1.0"});
  t.add_row({"longer", "2.5"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| name   |"), std::string::npos);
  EXPECT_NE(s.find("|   1.0 |"), std::string::npos);  // right-aligned
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable t;
  t.columns({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantError);
}

TEST(Table, PctAndNumHelpers) {
  EXPECT_EQ(AsciiTable::pct(3.256, 2), "+3.26%");
  EXPECT_EQ(AsciiTable::pct(-1.0, 1), "-1.0%");
  EXPECT_EQ(AsciiTable::num(2.345, 1), "2.3");
  EXPECT_EQ(AsciiTable::ghz(2.399), "2.40");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.next_u64() != b.next_u64();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, Below) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.below(7), 7u);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, DiscardSkipsExactlyNDraws) {
  for (std::uint64_t n : {0u, 1u, 2u, 399u}) {
    Rng drawn(17), skipped(17);
    for (std::uint64_t i = 0; i < n; ++i) (void)drawn.next_u64();
    skipped.discard(n);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(skipped.next_u64(), drawn.next_u64());
  }
}

TEST(Error, CheckMacros) {
  EXPECT_NO_THROW(EAR_CHECK(1 + 1 == 2));
  EXPECT_THROW(EAR_CHECK(false), InvariantError);
  try {
    EAR_CHECK_MSG(false, "context here");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
}

}  // namespace
}  // namespace ear::common
