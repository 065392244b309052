// Sweep orchestrator: spec parsing (every rejection names its line),
// deterministic grid expansion, the on-disk artifact store, and the
// headline guarantee — an interrupted sweep resumed at a different job
// count produces byte-identical campaign.json and checkpoint files.
#include "service/sweep.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "service/checkpoint.hpp"

namespace ear::service {
namespace {

namespace fs = std::filesystem;

SweepSpec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_sweep_spec(in);
}

constexpr const char* kSmallSpec =
    "# demo sweep\n"
    "[sweep]\n"
    "name = demo\n"
    "apps = bqcd\n"
    "policies = min_energy_eufs, min_time_eufs\n"
    "runs = 2\n"
    "seed = 7\n"
    "checkpoint_every = 1\n";

TEST(SweepSpecParse, FullSpec) {
  const SweepSpec s = parse(
      "[sweep]\n"
      "name = big   ; trailing comment\n"
      "apps = bqcd, dgemm\n"
      "policies = min_energy_eufs\n"
      "faults = none, plans/x.plan\n"
      "runs = 4\n"
      "seed = 99\n"
      "cpu_th = 0.03\n"
      "unc_th = 0.01\n"
      "checkpoint_every = 8\n");
  EXPECT_EQ(s.name, "big");
  EXPECT_EQ(s.apps, (std::vector<std::string>{"bqcd", "dgemm"}));
  EXPECT_EQ(s.policies, (std::vector<std::string>{"min_energy_eufs"}));
  EXPECT_EQ(s.faults, (std::vector<std::string>{"none", "plans/x.plan"}));
  EXPECT_EQ(s.runs, 4u);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_DOUBLE_EQ(s.cpu_th, 0.03);
  EXPECT_DOUBLE_EQ(s.unc_th, 0.01);
  EXPECT_EQ(s.checkpoint_every, 8u);
}

TEST(SweepSpecParse, RejectionsNameTheProblem) {
  auto expect_error = [](const std::string& text, const char* needle) {
    try {
      (void)parse(text);
      FAIL() << "expected ConfigError for: " << text;
    } catch (const common::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("# only a comment\n", "no [sweep] section");
  expect_error("[sweep]\n", "no apps");
  expect_error("[sweep]\napps = x\n", "no policies");
  expect_error("[sweep]\napps = x\npolicies = p\nruns = 0\n", "runs");
  expect_error("[other]\n", "unknown section");
  expect_error("[sweep\n", "malformed section header");
  expect_error("[sweep]\nbogus_key = 1\n", "unknown key");
  expect_error("[sweep]\nruns = two\n", "expects a non-negative integer");
  expect_error("[sweep]\nruns = -1\n", "non-negative");
  expect_error("[sweep]\njust words\n", "expected 'key = value'");
  expect_error("before = section\n[sweep]\n", "before any [section]");
  // Values are strict: no empty value, no non-finite threshold.
  const std::string grid = "[sweep]\napps = x\npolicies = p\n";
  expect_error(grid + "seed =\n", "line 4: key 'seed' has an empty value");
  expect_error(grid + "cpu_th = inf\n", "expects a finite number");
  expect_error(grid + "runs = 2.0\n", "expects a non-negative integer");
}

TEST(SweepSpecParse, SeedIsExact) {
  // 2^53 + 1 has no double: the seed must be parsed as an integer.
  const SweepSpec s =
      parse("[sweep]\napps = x\npolicies = p\nseed = 9007199254740993\n");
  EXPECT_EQ(s.seed, 9007199254740993ull);
}

TEST(SweepPoints, AppMajorOrderWithoutFaultAxis) {
  SweepSpec s;
  s.apps = {"a1", "a2"};
  s.policies = {"p1", "p2"};
  const auto pts = sweep_points(s);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].label, "a1/p1");
  EXPECT_EQ(pts[1].label, "a1/p2");
  EXPECT_EQ(pts[2].label, "a2/p1");
  EXPECT_EQ(pts[3].label, "a2/p2");
  for (const auto& p : pts) EXPECT_TRUE(p.fault_plan.empty());
}

TEST(SweepPoints, FaultAxisExtendsLabels) {
  SweepSpec s;
  s.apps = {"a"};
  s.policies = {"p"};
  s.faults = {"none", "plans/drops.plan"};
  const auto pts = sweep_points(s);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].label, "a/p/none");
  EXPECT_TRUE(pts[0].fault_plan.empty());
  EXPECT_EQ(pts[1].label, "a/p/drops");
  EXPECT_EQ(pts[1].fault_plan, "plans/drops.plan");
}

TEST(SweepPoints, LabelDirSanitises) {
  EXPECT_EQ(label_dir("bqcd/min_energy_eufs"), "bqcd_min_energy_eufs");
  EXPECT_EQ(label_dir("plain"), "plain");
}

class SweepRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::path(::testing::TempDir()) /
            ("sweep_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(base_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(base_, ec);
  }

  std::string store(const char* name) const { return (base_ / name).string(); }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  fs::path base_;
};

TEST_F(SweepRunTest, ArtifactStoreLayout) {
  const SweepSpec spec = parse(kSmallSpec);
  SweepOptions opts;
  opts.jobs = 2;
  opts.spec_text = kSmallSpec;
  const SweepOutcome out = run_sweep(spec, store("s"), opts);
  EXPECT_EQ(out.total, 4u);
  EXPECT_EQ(out.completed, 4u);
  EXPECT_EQ(out.restored, 0u);
  EXPECT_FALSE(out.interrupted);

  const fs::path s(store("s"));
  EXPECT_TRUE(fs::exists(s / "stamp.json"));
  EXPECT_TRUE(fs::exists(s / "sweep.ini"));
  EXPECT_TRUE(fs::exists(s / "campaign.ckpt"));
  EXPECT_TRUE(fs::exists(s / "campaign.json"));
  EXPECT_EQ(slurp(s / "sweep.ini"), kSmallSpec);
  for (const char* label : {"bqcd_min_energy_eufs", "bqcd_min_time_eufs"}) {
    for (const char* run : {"run0", "run1"}) {
      const fs::path dir = s / label / run;
      EXPECT_TRUE(fs::exists(dir / "timeline.csv")) << dir;
      EXPECT_TRUE(fs::exists(dir / "nodes.csv")) << dir;
      EXPECT_TRUE(fs::exists(dir / "summary.json")) << dir;
      EXPECT_TRUE(fs::exists(dir / "trace.bin")) << dir;
    }
  }
  // The summary references its own run coordinates.
  const std::string summary =
      slurp(s / "bqcd_min_energy_eufs" / "run1" / "summary.json");
  EXPECT_NE(summary.find("\"label\": \"bqcd/min_energy_eufs\""),
            std::string::npos);
  EXPECT_NE(summary.find("\"run\": 1"), std::string::npos);
  // The checkpoint holds all four slots.
  const Checkpoint ckpt =
      decode_checkpoint(read_file((s / "campaign.ckpt").string()));
  EXPECT_EQ(ckpt.slots.size(), 4u);
  EXPECT_EQ(ckpt.meta.total_slots, 4u);
}

TEST_F(SweepRunTest, HaltResumeBitwiseIdenticalAcrossJobCounts) {
  // The headline guarantee. Reference: an uninterrupted run at jobs=2.
  // Candidates: halted after 2 slots at jobs=1, resumed at jobs=1, 2
  // and 8 — every final campaign.json and campaign.ckpt must match the
  // reference byte for byte.
  const SweepSpec spec = parse(kSmallSpec);
  SweepOptions ref_opts;
  ref_opts.jobs = 2;
  const SweepOutcome ref = run_sweep(spec, store("ref"), ref_opts);
  ASSERT_EQ(ref.completed, 4u);
  const std::string ref_json = slurp(fs::path(store("ref")) / "campaign.json");
  const std::string ref_ckpt = slurp(fs::path(store("ref")) / "campaign.ckpt");
  ASSERT_FALSE(ref_json.empty());

  for (std::size_t resume_jobs : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    const std::string name = "halt" + std::to_string(resume_jobs);
    SweepOptions halt_opts;
    halt_opts.jobs = 1;
    halt_opts.halt_after_slots = 2;
    const SweepOutcome halted = run_sweep(spec, store(name.c_str()),
                                          halt_opts);
    EXPECT_TRUE(halted.interrupted);
    EXPECT_GE(halted.completed, 2u);
    EXPECT_LT(halted.completed, 4u);

    SweepOptions resume_opts;
    resume_opts.jobs = resume_jobs;
    const SweepOutcome resumed = run_sweep(spec, store(name.c_str()),
                                           resume_opts);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.restored, halted.completed);
    EXPECT_EQ(resumed.completed, 4u);

    EXPECT_EQ(slurp(fs::path(store(name.c_str())) / "campaign.json"),
              ref_json)
        << "resume at jobs=" << resume_jobs;
    EXPECT_EQ(slurp(fs::path(store(name.c_str())) / "campaign.ckpt"),
              ref_ckpt)
        << "resume at jobs=" << resume_jobs;
  }
}

TEST_F(SweepRunTest, FreshIgnoresExistingCheckpoint) {
  const SweepSpec spec = parse(kSmallSpec);
  SweepOptions opts;
  opts.jobs = 2;
  (void)run_sweep(spec, store("s"), opts);
  opts.fresh = true;
  const SweepOutcome again = run_sweep(spec, store("s"), opts);
  EXPECT_EQ(again.restored, 0u);
  EXPECT_EQ(again.completed, 4u);
}

TEST_F(SweepRunTest, ChangedGridStartsCleanWithNote) {
  SweepSpec spec = parse(kSmallSpec);
  SweepOptions opts;
  opts.jobs = 2;
  (void)run_sweep(spec, store("s"), opts);
  spec.seed = 8;  // different grid → different fingerprint
  const SweepOutcome out = run_sweep(spec, store("s"), opts);
  EXPECT_EQ(out.restored, 0u);
  EXPECT_NE(out.note.find("different campaign grid"), std::string::npos)
      << out.note;
  EXPECT_EQ(out.completed, 4u);
}

TEST_F(SweepRunTest, CorruptCheckpointStartsCleanNeverCrashes) {
  const SweepSpec spec = parse(kSmallSpec);
  SweepOptions opts;
  opts.jobs = 2;
  (void)run_sweep(spec, store("s"), opts);
  // Truncate the checkpoint to simulate a torn write left by a crash of
  // a non-atomic writer (or disk corruption).
  const fs::path ckpt = fs::path(store("s")) / "campaign.ckpt";
  const std::string bytes = slurp(ckpt);
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  const SweepOutcome out = run_sweep(spec, store("s"), opts);
  EXPECT_EQ(out.restored, 0u);
  EXPECT_FALSE(out.note.empty());
  EXPECT_EQ(out.completed, 4u);
}

}  // namespace
}  // namespace ear::service
