#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/ini.hpp"
#include "common/log.hpp"
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

/// The ConfigError message `fn` throws, or "" when it throws none.
template <typename F>
std::string error_of(F fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

std::vector<IniSection> ini(const std::string& text) {
  std::istringstream in(text);
  return read_ini(in, "test file");
}

TEST(Ini, SectionsEntriesAndLineNumbers) {
  const auto sections = ini(
      "# header comment\n"
      "\n"
      "[first]   ; trailing comment\n"
      "  a = 1\n"
      "b=two words # inline\n"
      "[ second ]\n"
      "c = x, y\n");
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].name, "first");
  EXPECT_EQ(sections[0].line, 3);
  ASSERT_EQ(sections[0].entries.size(), 2u);
  EXPECT_EQ(sections[0].entries[0].key, "a");
  EXPECT_EQ(sections[0].entries[0].value, "1");
  EXPECT_EQ(sections[0].entries[0].line, 4);
  EXPECT_EQ(sections[0].entries[1].key, "b");
  EXPECT_EQ(sections[0].entries[1].value, "two words");
  EXPECT_EQ(sections[1].name, "second");
  ASSERT_EQ(sections[1].entries.size(), 1u);
  EXPECT_EQ(sections[1].entries[0].value, "x, y");
  EXPECT_EQ(sections[1].entries[0].line, 7);
  EXPECT_TRUE(ini("# only comments\n\n; and blanks\n").empty());
  EXPECT_TRUE(ini("[empty]\n")[0].entries.empty());
}

TEST(Ini, GrammarErrorsNameTheLine) {
  EXPECT_EQ(error_of([] { (void)ini("[x\n"); }),
            "test file line 1: malformed section header '[x'");
  EXPECT_EQ(error_of([] { (void)ini("\n[ ]\n"); }),
            "test file line 2: malformed section header '[ ]'");
  EXPECT_EQ(error_of([] { (void)ini("[]\n"); }),
            "test file line 1: malformed section header '[]'");
  EXPECT_EQ(error_of([] { (void)ini("k = v\n[x]\n"); }),
            "test file line 1: key before any [section]");
  EXPECT_EQ(error_of([] { (void)ini("[x]\nno equals\n"); }),
            "test file line 2: expected 'key = value'");
  EXPECT_EQ(error_of([] { (void)ini("[x]\n= v\n"); }),
            "test file line 2: expected 'key = value'");
  EXPECT_EQ(error_of([] { (void)ini("[x]\nk =\n"); }),
            "test file line 2: key 'k' has an empty value");
  EXPECT_EQ(error_of([] { (void)ini("[x]\nk = ; a comment\n"); }),
            "test file line 2: key 'k' has an empty value");
}

TEST(Ini, TypedValuesNameFileLineAndKey) {
  const auto sections =
      ini("[x]\nn = 2.5\ni = -1\nh = 0x620\nb = yes\nf = 0\n");
  const std::vector<IniEntry>& e = sections[0].entries;
  EXPECT_DOUBLE_EQ(e[0].number(), 2.5);
  EXPECT_EQ(e[1].integer(-1, 10), -1);
  EXPECT_EQ(e[2].integer<std::uint32_t>(), 0x620u);
  EXPECT_TRUE(e[3].boolean());
  EXPECT_FALSE(e[4].boolean());
  EXPECT_EQ(error_of([&] { (void)e[3].number(); }),
            "test file line 5: key 'b' expects a finite number, got 'yes'");
  EXPECT_EQ(error_of([&] { (void)e[0].integer<int>(); }),
            "test file line 2: key 'n' expects an integer, got '2.5'");
  EXPECT_EQ(error_of([&] { (void)e[0].boolean(); }),
            "test file line 2: key 'n' expects true/false, got '2.5'");
  EXPECT_EQ(error_of([&] { throw e[1].error("custom"); }),
            "test file line 3: custom");
}

TEST(ParseNumber, OneFiniteToken) {
  EXPECT_DOUBLE_EQ(parse_number("1e3", "v"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_number("-0.5", "v"), -0.5);
  for (const char* bad : {"", "nan", "inf", "-inf", "1e999", "1.5x", "abc"}) {
    EXPECT_THROW((void)parse_number(bad, "v"), ConfigError) << bad;
  }
  EXPECT_EQ(error_of([] { (void)parse_number("nan", "option --budget"); }),
            "option --budget expects a finite number, got 'nan'");
}

TEST(ParseInteger, ExactAndRangeCheckedBeforeNarrowing) {
  // 2^53 + 1 has no double; parsing through strtod would give ...992.
  EXPECT_EQ(parse_integer<std::uint64_t>("9007199254740993", "v"),
            9007199254740993ull);
  EXPECT_EQ(parse_integer<std::uint64_t>("18446744073709551615", "v"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_integer<std::int64_t>("-3", "v"), -3);
  EXPECT_EQ(parse_integer<std::uint32_t>("0x620", "v"), 0x620u);
  EXPECT_EQ(parse_integer<std::uint32_t>("0xFFFFFFFF", "v"), 0xFFFFFFFFu);
  for (const char* bad : {"", "8.0", "1e3", "0x", "0x-5", "-0x5", "+3", " 3",
                          "3 ", "18446744073709551616", "-1"}) {
    EXPECT_THROW((void)parse_integer<std::uint64_t>(bad, "v"), ConfigError)
        << bad;
  }
  EXPECT_THROW((void)parse_integer<std::uint32_t>("0x100000000", "v"),
               ConfigError);
  EXPECT_EQ(error_of([] { (void)parse_integer("3000000000", "node", -1,
                                              INT_MAX); }),
            "node expects an integer in [-1, 2147483647], got '3000000000'");
  EXPECT_EQ(error_of([] { (void)parse_integer("-2", "node", -1, INT_MAX); }),
            "node expects an integer in [-1, 2147483647], got '-2'");
  EXPECT_EQ(error_of([] { (void)parse_integer<std::size_t>("-1", "runs"); }),
            "runs expects a non-negative integer, got '-1'");
  EXPECT_EQ(error_of([] {
              (void)parse_integer<std::int64_t>("x", "option --jobs");
            }),
            "option --jobs expects an integer, got 'x'");
}

TEST(SplitList, TrimsItemsAndDropsEmptyOnes) {
  using List = std::vector<std::string>;
  EXPECT_EQ(split_list("a, b ,c"), (List{"a", "b", "c"}));
  EXPECT_EQ(split_list(" a ,, \t,b,"), (List{"a", "b"}));
  EXPECT_EQ(split_list("two words"), (List{"two words"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_TRUE(split_list(" , ,").empty());
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

// The EAR_LOG_* macros test the level before they evaluate anything, so
// a dropped message costs no formatting (Signature::str() and the like).
class Log : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = log_level(); }
  void TearDown() override { set_log_level(saved_); }

  /// The argument with a side effect: counts its evaluations.
  int touch() { return ++evaluated_; }

  int evaluated_ = 0;

 private:
  LogLevel saved_ = LogLevel::kWarn;
};

TEST_F(Log, DroppedMessageDoesNotEvaluateItsArguments) {
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  EAR_LOG_DEBUG("test", "value %d", touch());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(evaluated_, 0);
}

TEST_F(Log, EnabledMessageEvaluatesItsArguments) {
  set_log_level(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  EAR_LOG_DEBUG("test", "value %d", touch());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[DEBUG] test: value 1\n");
  EXPECT_EQ(evaluated_, 1);
}

TEST_F(Log, MessageAtTheThresholdPrints) {
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  EAR_LOG_WARN("test", "at %s", "threshold");
  EAR_LOG_INFO("test", "below");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] test: at threshold\n");
}

// Each message is one write: concurrent loggers (campaign workers) never
// merge lines.
TEST_F(Log, ConcurrentMessagesStayWholeLines) {
  set_log_level(LogLevel::kWarn);
  constexpr int kThreads = 4;
  constexpr int kMessages = 500;
  testing::internal::CaptureStderr();
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i < kMessages; ++i) {
          EAR_LOG_WARN("worker", "thread %d message %d of a campaign", t, i);
        }
      });
    }
  }
  const std::string out = testing::internal::GetCapturedStderr();
  std::vector<std::string> got;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) got.push_back(line);
  std::vector<std::string> want;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kMessages; ++i) {
      std::string line = "[WARN] worker: thread ";
      line += std::to_string(t);
      line += " message ";
      line += std::to_string(i);
      line += " of a campaign";
      want.push_back(line);
    }
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want) << "some lines were merged or split";
}

TEST_F(Log, LongMessageIsWrittenWhole) {
  set_log_level(LogLevel::kWarn);
  const std::string body(5000, 'x');
  testing::internal::CaptureStderr();
  EAR_LOG_WARN("test", "%s", body.c_str());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] test: " + body + "\n");
}

}  // namespace
}  // namespace ear::common
