// FaultPlan parser tests: the INI-style fault schedule format, its
// validation, and the plan-level queries the chaos engine relies on.
#include "faults/fault_plan.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ear::faults {
namespace {

using common::ConfigError;

FaultPlan parse(const std::string& text) {
  std::istringstream in(text);
  return parse_fault_plan(in);
}

TEST(FaultPlan, ParsesEveryFamilyWithDefaults) {
  const FaultPlan plan = parse(
      "[msr_drop]\n[msr_lock]\n[inm_stuck]\n"
      "[inm_noise]\nmagnitude = 50\n"
      "[pmu_glitch]\n[snapshot_drop]\n[node_dropout]\n");
  ASSERT_EQ(plan.specs.size(), 7u);
  EXPECT_EQ(plan.family_count(), 7u);
  EXPECT_FALSE(plan.empty());
  const FaultSpec& drop = plan.specs.front();
  EXPECT_EQ(drop.family, FaultFamily::kMsrDrop);
  EXPECT_EQ(drop.node, -1);
  EXPECT_EQ(drop.socket, -1);
  EXPECT_DOUBLE_EQ(drop.start_s, 0.0);
  EXPECT_DOUBLE_EQ(drop.probability, 1.0);
  EXPECT_EQ(drop.reg, 0x620u);
}

TEST(FaultPlan, ParsesKeysCommentsAndWhitespace) {
  const FaultPlan plan = parse(
      "# chaos schedule\n"
      "[msr_drop]\n"
      "  node = 2      ; only the third node\n"
      "  socket = 1\n"
      "  start = 20\n"
      "  end = 60.5\n"
      "  probability = 0.25\n"
      "  register = 1552\n"  // 0x610 in decimal
      "\n"
      "[inm_noise]\n"
      "  magnitude = 120\n");
  ASSERT_EQ(plan.specs.size(), 2u);
  const FaultSpec& f = plan.specs[0];
  EXPECT_EQ(f.node, 2);
  EXPECT_EQ(f.socket, 1);
  EXPECT_DOUBLE_EQ(f.start_s, 20.0);
  EXPECT_DOUBLE_EQ(f.end_s, 60.5);
  EXPECT_DOUBLE_EQ(f.probability, 0.25);
  EXPECT_EQ(f.reg, 0x610u);
  EXPECT_DOUBLE_EQ(plan.specs[1].magnitude, 120.0);
}

TEST(FaultPlan, RegisterAcceptsHexAndTargetsAcceptAll) {
  const FaultPlan plan =
      parse("[msr_drop]\nregister = 0x620\nnode = -1\nisland = 7\n");
  EXPECT_EQ(plan.specs[0].reg, 0x620u);
  EXPECT_EQ(plan.specs[0].node, -1);
  EXPECT_EQ(plan.specs[0].island, 7);
}

TEST(FaultPlan, AtIsStartShorthand) {
  const FaultPlan plan = parse("[msr_lock]\nnode = 1\nat = 30\n");
  ASSERT_EQ(plan.specs.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.specs[0].start_s, 30.0);
  EXPECT_GT(plan.specs[0].end_s, 1e29);  // open-ended
}

TEST(FaultPlan, TargetingAndWindowPredicates) {
  FaultSpec f;
  f.node = 2;
  f.socket = 0;
  f.start_s = 10.0;
  f.end_s = 20.0;
  EXPECT_TRUE(f.applies_to_node(2));
  EXPECT_FALSE(f.applies_to_node(1));
  EXPECT_TRUE(f.applies_to_socket(0));
  EXPECT_FALSE(f.applies_to_socket(1));
  EXPECT_FALSE(f.active_at(9.999));
  EXPECT_TRUE(f.active_at(10.0));   // [start, end)
  EXPECT_TRUE(f.active_at(19.999));
  EXPECT_FALSE(f.active_at(20.0));
  const FaultSpec all;  // defaults target everything, forever
  EXPECT_TRUE(all.applies_to_node(0));
  EXPECT_TRUE(all.applies_to_node(99));
  EXPECT_TRUE(all.applies_to_socket(7));
  EXPECT_TRUE(all.active_at(0.0));
}

TEST(FaultPlan, FamilyQueries) {
  const FaultPlan plan =
      parse("[msr_drop]\n[msr_drop]\nnode = 1\n[pmu_glitch]\n");
  EXPECT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.family_count(), 2u);  // duplicates count once
  EXPECT_TRUE(plan.has_family(FaultFamily::kMsrDrop));
  EXPECT_TRUE(plan.has_family(FaultFamily::kPmuGlitch));
  EXPECT_FALSE(plan.has_family(FaultFamily::kNodeDropout));
}

TEST(FaultPlan, FamilyNamesRoundTrip) {
  for (const char* name : {"msr_drop", "msr_lock", "inm_stuck", "inm_noise",
                           "pmu_glitch", "snapshot_drop", "node_dropout"}) {
    const FaultPlan plan = parse(std::string("[") + name + "]\n" +
                                 "magnitude = 1\n");
    EXPECT_STREQ(family_name(plan.specs[0].family), name);
  }
}

TEST(FaultPlan, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), ConfigError);                    // no faults at all
  EXPECT_THROW(parse("[made_up_family]\n"), ConfigError);  // unknown family
  EXPECT_THROW(parse("[msr_drop\n"), ConfigError);         // unterminated
  EXPECT_THROW(parse("node = 1\n"), ConfigError);          // key before section
  EXPECT_THROW(parse("[msr_drop]\nnode 1\n"), ConfigError);       // no '='
  EXPECT_THROW(parse("[msr_drop]\nnode =\n"), ConfigError);       // empty value
  EXPECT_THROW(parse("[msr_drop]\ncolour = red\n"), ConfigError); // unknown key
  EXPECT_THROW(parse("[msr_drop]\nstart = soon\n"), ConfigError); // not a number
}

TEST(FaultPlan, RejectsInvalidValues) {
  EXPECT_THROW(parse("[msr_drop]\nprobability = 1.5\n"), ConfigError);
  EXPECT_THROW(parse("[msr_drop]\nprobability = -0.1\n"), ConfigError);
  EXPECT_THROW(parse("[inm_noise]\nmagnitude = -5\n"), ConfigError);
  EXPECT_THROW(parse("[msr_drop]\nregister = -1\n"), ConfigError);
  EXPECT_THROW(parse("[msr_drop]\nregister = 2.5\n"), ConfigError);
  EXPECT_THROW(parse("[msr_drop]\nregister = 0x100000000\n"), ConfigError);
  // Targets are an index or -1 (every one). A value past int must not
  // wrap to a negative, which would target every node.
  EXPECT_THROW(parse("[msr_drop]\nnode = 3000000000\n"), ConfigError);
  EXPECT_THROW(parse("[msr_drop]\nsocket = -2\n"), ConfigError);
  // Numbers must be finite.
  EXPECT_THROW(parse("[msr_drop]\nprobability = nan\n"), ConfigError);
  EXPECT_THROW(parse("[msr_drop]\nstart = nan\n"), ConfigError);
  // Empty windows are rejected for every section, including a non-final
  // one.
  EXPECT_THROW(parse("[msr_drop]\nstart = 10\nend = 10\n"), ConfigError);
  EXPECT_THROW(parse("[msr_drop]\nstart = 10\nend = 5\n[msr_lock]\n"),
               ConfigError);
  // inm_noise without a magnitude is meaningless.
  EXPECT_THROW(parse("[inm_noise]\n"), ConfigError);
  EXPECT_THROW(parse("[inm_noise]\n[msr_drop]\n"), ConfigError);
}

TEST(FaultPlan, LoadFromMissingFileThrows) {
  EXPECT_THROW((void)load_fault_plan("/nonexistent/chaos.plan"), ConfigError);
}

}  // namespace
}  // namespace ear::faults
