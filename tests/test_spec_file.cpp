#include "workload/spec_file.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ear::workload {
namespace {

using common::ConfigError;

std::vector<CatalogEntry> parse(const std::string& text) {
  std::istringstream in(text);
  return parse_spec_file(in);
}

TEST(SpecFile, MinimalSection) {
  const auto entries = parse("[probe]\ncpi = 0.5\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "probe");
  EXPECT_DOUBLE_EQ(entries[0].targets.cpi, 0.5);
  // Unset keys keep defaults.
  EXPECT_EQ(entries[0].nodes, 1u);
  EXPECT_TRUE(entries[0].is_mpi);
}

TEST(SpecFile, FullEntryRoundTrips) {
  const auto entries = parse(R"(# synthetic memory-bound app
[membound]
description = very memory bound
nodes = 4
ranks_per_node = 40
threads_per_rank = 1
mpi = true
gpu_node = false
total_seconds = 120
iterations = 60
cpi = 2.5
gbps = 150
power = 340
vpi = 0.05
comm = 0.1
relaxed = 0.4
stall = 0.7
uncore_stall = 0.4
active_cores = 40
)");
  ASSERT_EQ(entries.size(), 1u);
  const auto& e = entries[0];
  EXPECT_EQ(e.description, "very memory bound");
  EXPECT_EQ(e.nodes, 4u);
  EXPECT_DOUBLE_EQ(e.targets.total_seconds, 120);
  EXPECT_EQ(e.targets.iterations, 60u);
  EXPECT_DOUBLE_EQ(e.targets.gbps, 150);
  EXPECT_DOUBLE_EQ(e.targets.mem_stall_share, 0.7);
  EXPECT_DOUBLE_EQ(e.targets.uncore_stall_share, 0.4);
  // And the entry is actually buildable.
  const AppModel app = make_app(e);
  EXPECT_EQ(app.total_iterations(), 60u);
}

TEST(SpecFile, MultipleSections) {
  const auto entries = parse("[a]\ncpi=0.4\n[b]\ncpi=0.6\ngpu_node=true\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_EQ(entries[1].name, "b");
  EXPECT_EQ(entries[1].node_kind, NodeKind::kSkylake6142mGpu);
}

TEST(SpecFile, CommentsAndWhitespace) {
  const auto entries = parse(
      "  # leading comment\n"
      "[x]   ; trailing\n"
      "  cpi   =   0.7  # inline\n"
      "\n"
      "gbps=5 ; semicolon comment\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_DOUBLE_EQ(entries[0].targets.cpi, 0.7);
  EXPECT_DOUBLE_EQ(entries[0].targets.gbps, 5.0);
}

TEST(SpecFile, BooleanSpellings) {
  EXPECT_TRUE(parse("[x]\nmpi=yes\n")[0].is_mpi);
  EXPECT_FALSE(parse("[x]\nmpi=0\n")[0].is_mpi);
  EXPECT_THROW((void)parse("[x]\nmpi=maybe\n"), ConfigError);
}

TEST(SpecFile, Errors) {
  EXPECT_THROW((void)parse(""), ConfigError);                     // no sections
  EXPECT_THROW((void)parse("cpi=1\n"), ConfigError);              // key first
  EXPECT_THROW((void)parse("[x\ncpi=1\n"), ConfigError);          // bad header
  EXPECT_THROW((void)parse("[x]\nnot-a-kv\n"), ConfigError);      // no '='
  EXPECT_THROW((void)parse("[x]\nbogus=1\n"), ConfigError);       // unknown key
  EXPECT_THROW((void)parse("[x]\ncpi=abc\n"), ConfigError);       // non-numeric
  EXPECT_THROW((void)parse("[x]\nnodes=2.5\n"), ConfigError);     // non-integer
  EXPECT_THROW((void)parse("[x]\nnodes=\n"), ConfigError);        // empty value
  EXPECT_THROW((void)parse("[x]\ntotal_seconds=nan\n"), ConfigError);  // NaN
  EXPECT_THROW((void)parse("[x]\nnodes=1e30\n"), ConfigError);     // overflow
  EXPECT_THROW((void)parse("[x]\nnodes=8.0\n"), ConfigError);      // not "8"
  EXPECT_THROW((void)parse("[]\ncpi=1\n"), ConfigError);           // no name
}

TEST(SpecFile, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_spec_file("/nonexistent/path.ini"), ConfigError);
}

TEST(SpecFile, ParsedEntryRunsEndToEnd) {
  const auto entries = parse(
      "[tiny]\ntotal_seconds=30\niterations=20\ncpi=0.45\ngbps=12\n"
      "power=315\nstall=0.1\n");
  const AppModel app = make_app(entries[0]);
  EXPECT_EQ(app.name, "tiny");
  EXPECT_GT(app.phases.front().demand.instructions_per_core, 0.0);
}

}  // namespace
}  // namespace ear::workload
