#include "common/args.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ear::common {
namespace {

ArgParser parse(std::initializer_list<const char*> argv,
                std::set<std::string> flags = {"compare", "verbose"}) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return ArgParser(static_cast<int>(v.size()), v.data(), std::move(flags));
}

TEST(Args, Positional) {
  const auto a = parse({"run", "bqcd"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "run");
  EXPECT_EQ(a.positional_or(1, "x"), "bqcd");
  EXPECT_EQ(a.positional_or(5, "fallback"), "fallback");
}

TEST(Args, KeyEqualsValue) {
  const auto a = parse({"--policy=min_energy", "--cpu-th=0.03"});
  EXPECT_EQ(a.get("policy", std::string("d")), "min_energy");
  EXPECT_DOUBLE_EQ(a.get("cpu-th", 0.0), 0.03);
}

TEST(Args, KeySpaceValue) {
  const auto a = parse({"--runs", "5", "--name", "abc"});
  EXPECT_EQ(a.get("runs", std::int64_t{0}), 5);
  EXPECT_EQ(a.get("name", std::string()), "abc");
}

TEST(Args, DeclaredFlagDoesNotConsumePositional) {
  const auto a = parse({"--compare", "app"});
  EXPECT_TRUE(a.flag("compare"));
  EXPECT_TRUE(a.has("compare"));
  EXPECT_FALSE(a.flag("other"));
  // The positional after the flag is still positional.
  ASSERT_EQ(a.positional().size(), 1u);
}

TEST(Args, FlagFollowedByOption) {
  // "--verbose --runs 3": verbose must not swallow "--runs".
  const auto a = parse({"--verbose", "--runs", "3"});
  EXPECT_TRUE(a.flag("verbose"));
  EXPECT_EQ(a.get("runs", std::int64_t{0}), 3);
}

TEST(Args, UndeclaredTrailingFlagIsStillAFlag) {
  // An undeclared option at the end of the line has nothing to consume.
  const auto a = parse({"--dry-run"}, {});
  EXPECT_TRUE(a.flag("dry-run"));
}

TEST(Args, Defaults) {
  const auto a = parse({});
  EXPECT_EQ(a.get("missing", std::string("d")), "d");
  EXPECT_DOUBLE_EQ(a.get("missing", 1.5), 1.5);
  EXPECT_EQ(a.get("missing", std::int64_t{7}), 7);
}

TEST(Args, MalformedNumbers) {
  const auto a = parse({"--x=abc"});
  EXPECT_THROW((void)a.get("x", 1.0), ConfigError);
  EXPECT_THROW((void)a.get("x", std::int64_t{1}), ConfigError);
  EXPECT_EQ(a.get("x", std::string()), "abc");
  // Numbers must be finite; integers whole and in range.
  const auto b = parse({"--budget", "nan", "--cap=inf", "--jobs=2.5",
                        "--seed=99999999999999999999"});
  EXPECT_THROW((void)b.get("budget", 1.0), ConfigError);
  EXPECT_THROW((void)b.get("cap", 1.0), ConfigError);
  EXPECT_THROW((void)b.get("jobs", std::int64_t{1}), ConfigError);
  EXPECT_THROW((void)b.get("seed", std::int64_t{1}), ConfigError);
}

TEST(Args, RepeatedOptionRejected) {
  EXPECT_THROW((void)parse({"--a=1", "--a=2"}), ConfigError);
}

TEST(Args, BareDashesRejected) {
  EXPECT_THROW((void)parse({"--"}), ConfigError);
  EXPECT_THROW((void)parse({"--=v"}), ConfigError);
}

TEST(Args, NegativeNumbers) {
  const auto a = parse({"--delta=-3", "--f=-0.5"});
  EXPECT_EQ(a.get("delta", std::int64_t{0}), -3);
  EXPECT_DOUBLE_EQ(a.get("f", 0.0), -0.5);
}

TEST(Args, UnknownOptionRejected) {
  const auto a = parse({"--jobs=2", "--compare", "--bogus", "1"});
  EXPECT_NO_THROW(a.require_known({"jobs", "compare", "bogus", "seed"}));
  try {
    a.require_known({"jobs", "compare"});
    FAIL() << "an unknown option must throw";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "unknown option --bogus");
  }
  EXPECT_NO_THROW(parse({"run", "bqcd"}).require_known({}));
}

}  // namespace
}  // namespace ear::common
