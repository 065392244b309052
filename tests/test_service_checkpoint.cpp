// Crash-safe checkpoints: bit-exact RunResult round-trips (NaN and all),
// forgiving loads for every way a file can be bad — including truncation
// at EVERY byte boundary — and the stamp/fingerprint gates that keep a
// rebuilt binary or a changed spec from silently mixing results.
#include "service/checkpoint.hpp"

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "service/wire.hpp"
#include "sim/campaign.hpp"
#include "sim/presets.hpp"
#include "workload/catalog.hpp"

namespace ear::service {
namespace {

namespace fs = std::filesystem;

bool same_double(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A RunResult exercising every serialised field with adversarial
/// values: NaN, infinities, signed zero, full-precision irrationals.
sim::RunResult adversarial_result() {
  sim::RunResult r;
  r.total_time_s = 0.1 + 0.2;  // 0.30000000000000004 — not representable
  r.total_energy_j = std::numeric_limits<double>::quiet_NaN();
  r.avg_dc_power_w = std::numeric_limits<double>::infinity();
  r.avg_pkg_power_w = -std::numeric_limits<double>::infinity();
  r.avg_cpu_ghz = -0.0;
  r.avg_imc_ghz = std::numeric_limits<double>::denorm_min();
  r.cpi = std::numeric_limits<double>::max();
  r.gbps = 1.0 / 3.0;

  sim::NodeResult n;
  n.elapsed_s = 12.000000000000001;
  n.energy_j = std::numeric_limits<double>::quiet_NaN();
  n.pkg_energy_j = 3.0e300;
  n.avg_dc_power_w = 271.25;
  n.avg_pkg_power_w = 0.0;
  n.avg_cpu_ghz = 2.4;
  n.avg_imc_ghz = 1.8;
  n.cpi = 0.7;
  n.tpi = 0.01;
  n.gbps = 100.5;
  n.vpi = 0.25;
  n.signatures = 17;
  n.msr_writes = 123456789;
  n.rejected_windows = 2;
  n.reanchors = 1;
  n.verify_failures = 3;
  n.reprobes = 4;
  n.degraded = true;
  r.nodes = {n, sim::NodeResult{}};

  r.imc_timeline = {{0.5, 2.0}, {1.5, 1.8}, {2.5, -0.0}};
  r.timeline = {{0.1, 2.4, 2.0, 300.25},
                {0.2, std::numeric_limits<double>::quiet_NaN(), 1.8, 295.0}};
  r.eargm_throttles = 5;
  r.eargm_final_limit = 3;
  // Every counter distinct and non-zero: two equal fields would let a
  // decoder that swaps their reads round-trip unnoticed.
  r.fault_report.msr_drops = 7;
  r.fault_report.msr_locks = 13;
  r.fault_report.snapshot_faults = 19;
  r.fault_report.dropped_readings = 23;
  r.fault_report.island_dropouts = 29;
  r.fault_report.verify_failures = 2;
  r.fault_report.rejected_windows = 31;
  r.fault_report.missed_readings = 37;
  r.fault_report.reprobes = 41;
  r.fault_report.fallbacks = 43;
  r.fault_report.reanchors = 11;
  r.fault_report.unsettled_nodes = 1;
  r.fault_events = {{1.25, 3, faults::FaultFamily::kMsrDrop},
                    {2.5, 0, faults::FaultFamily::kSnapshotDrop}};
  return r;
}

void expect_same_node(const sim::NodeResult& a, const sim::NodeResult& b) {
  EXPECT_TRUE(same_double(a.elapsed_s, b.elapsed_s));
  EXPECT_TRUE(same_double(a.energy_j, b.energy_j));
  EXPECT_TRUE(same_double(a.pkg_energy_j, b.pkg_energy_j));
  EXPECT_TRUE(same_double(a.avg_dc_power_w, b.avg_dc_power_w));
  EXPECT_TRUE(same_double(a.avg_pkg_power_w, b.avg_pkg_power_w));
  EXPECT_TRUE(same_double(a.avg_cpu_ghz, b.avg_cpu_ghz));
  EXPECT_TRUE(same_double(a.avg_imc_ghz, b.avg_imc_ghz));
  EXPECT_TRUE(same_double(a.cpi, b.cpi));
  EXPECT_TRUE(same_double(a.tpi, b.tpi));
  EXPECT_TRUE(same_double(a.gbps, b.gbps));
  EXPECT_TRUE(same_double(a.vpi, b.vpi));
  EXPECT_EQ(a.signatures, b.signatures);
  EXPECT_EQ(a.msr_writes, b.msr_writes);
  EXPECT_EQ(a.rejected_windows, b.rejected_windows);
  EXPECT_EQ(a.reanchors, b.reanchors);
  EXPECT_EQ(a.verify_failures, b.verify_failures);
  EXPECT_EQ(a.reprobes, b.reprobes);
  EXPECT_EQ(a.degraded, b.degraded);
}

void expect_same_result(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_TRUE(same_double(a.total_time_s, b.total_time_s));
  EXPECT_TRUE(same_double(a.total_energy_j, b.total_energy_j));
  EXPECT_TRUE(same_double(a.avg_dc_power_w, b.avg_dc_power_w));
  EXPECT_TRUE(same_double(a.avg_pkg_power_w, b.avg_pkg_power_w));
  EXPECT_TRUE(same_double(a.avg_cpu_ghz, b.avg_cpu_ghz));
  EXPECT_TRUE(same_double(a.avg_imc_ghz, b.avg_imc_ghz));
  EXPECT_TRUE(same_double(a.cpi, b.cpi));
  EXPECT_TRUE(same_double(a.gbps, b.gbps));
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    expect_same_node(a.nodes[i], b.nodes[i]);
  }
  ASSERT_EQ(a.imc_timeline.size(), b.imc_timeline.size());
  for (std::size_t i = 0; i < a.imc_timeline.size(); ++i) {
    EXPECT_TRUE(same_double(a.imc_timeline[i].first, b.imc_timeline[i].first));
    EXPECT_TRUE(
        same_double(a.imc_timeline[i].second, b.imc_timeline[i].second));
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_TRUE(same_double(a.timeline[i].t_s, b.timeline[i].t_s));
    EXPECT_TRUE(same_double(a.timeline[i].cpu_ghz, b.timeline[i].cpu_ghz));
    EXPECT_TRUE(same_double(a.timeline[i].imc_ghz, b.timeline[i].imc_ghz));
    EXPECT_TRUE(
        same_double(a.timeline[i].dc_power_w, b.timeline[i].dc_power_w));
  }
  EXPECT_EQ(a.eargm_throttles, b.eargm_throttles);
  EXPECT_EQ(a.eargm_final_limit, b.eargm_final_limit);
  EXPECT_EQ(std::memcmp(&a.fault_report, &b.fault_report,
                        sizeof(faults::FaultReport)),
            0);
  EXPECT_EQ(a.fault_events, b.fault_events);
}

Checkpoint sample_checkpoint() {
  Checkpoint c;
  c.meta.stamp = "git abc123, Release, GNU 12.2.0";
  c.meta.fingerprint = 0xDEADBEEFCAFEF00Dull;
  c.meta.total_slots = 6;
  c.slots.push_back({0, 0, adversarial_result()});
  c.slots.push_back({1, 2, sim::RunResult{}});
  return c;
}

TEST(RunResultWire, RoundTripIsBitExact) {
  const sim::RunResult before = adversarial_result();
  ByteWriter w;
  serialize_run_result(&w, before);
  ByteReader r(w.bytes());
  const sim::RunResult after = deserialize_run_result(&r);
  EXPECT_TRUE(r.at_end());
  expect_same_result(before, after);
}

TEST(CheckpointWire, EncodeDecodeRoundTrip) {
  const Checkpoint before = sample_checkpoint();
  const std::string bytes = encode_checkpoint(before);
  const Checkpoint after = decode_checkpoint(bytes);
  EXPECT_EQ(after.meta.format, kCheckpointFormatVersion);
  EXPECT_EQ(after.meta.stamp, before.meta.stamp);
  EXPECT_EQ(after.meta.fingerprint, before.meta.fingerprint);
  EXPECT_EQ(after.meta.total_slots, before.meta.total_slots);
  ASSERT_EQ(after.slots.size(), before.slots.size());
  for (std::size_t i = 0; i < after.slots.size(); ++i) {
    EXPECT_EQ(after.slots[i].point, before.slots[i].point);
    EXPECT_EQ(after.slots[i].run, before.slots[i].run);
    expect_same_result(after.slots[i].result, before.slots[i].result);
  }
}

TEST(CheckpointWire, EncodingIsDeterministic) {
  // Same progress → same bytes, regardless of when it was encoded.
  EXPECT_EQ(encode_checkpoint(sample_checkpoint()),
            encode_checkpoint(sample_checkpoint()));
}

TEST(CheckpointWire, TruncationAtEveryByteBoundaryNeverCrashes) {
  // The kill-point sweep: a checkpoint chopped at every possible length
  // must be rejected cleanly (strict decode throws WireError, forgiving
  // load starts clean) — never crash, never yield a half-read snapshot.
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  ASSERT_GT(bytes.size(), 16u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode_checkpoint(bytes.substr(0, len)), WireError)
        << "truncated to " << len << " of " << bytes.size() << " bytes";
  }
  // The full file decodes; one trailing garbage byte does not.
  EXPECT_NO_THROW((void)decode_checkpoint(bytes));
  EXPECT_THROW((void)decode_checkpoint(bytes + '\0'), WireError);
}

TEST(CheckpointWire, SingleByteCorruptionIsCaught) {
  // Flip one bit in each byte region (magic, length, payload, CRC); the
  // CRC / magic / length checks must reject every variant.
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  for (std::size_t pos : {std::size_t{0}, std::size_t{9}, std::size_t{20},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_THROW((void)decode_checkpoint(bad), WireError)
        << "corrupted byte " << pos;
  }
}

TEST(CheckpointWire, OverflowingLengthFieldRejectedCleanly) {
  // Regression: a corrupted length field near UINT32_MAX once wrapped
  // the 32-bit `len + 4` truncation check and escaped decode as
  // std::out_of_range from substr. It must be a WireError like any
  // other corruption.
  const std::string good = encode_checkpoint(sample_checkpoint());
  for (const std::uint32_t len :
       {0xFFFFFFFFu, 0xFFFFFFFEu, 0xFFFFFFFCu}) {
    std::string bad = good;
    std::memcpy(bad.data() + 8, &len, 4);  // length field follows magic
    EXPECT_THROW((void)decode_checkpoint(bad), WireError)
        << "length 0x" << std::hex << len;
  }
}

TEST(CheckpointWire, WrongFormatVersionRejected) {
  Checkpoint c = sample_checkpoint();
  c.meta.format = kCheckpointFormatVersion + 1;
  EXPECT_THROW((void)decode_checkpoint(encode_checkpoint(c)), WireError);
}

TEST(CheckpointWire, TenByteVarintOverflowIsWireErrorNotUb) {
  // A varint whose continuation bits never clear would, without the
  // loop bound and its EAR_EXPECT(shift < 64) guard, shift a u64 by 70
  // — UB. Ten 0x80+ bytes must surface as a clean WireError instead;
  // the boundary case (9 continuations then a terminator) decodes.
  const std::string ten(10, static_cast<char>(0xFF));
  ByteReader r(ten);
  EXPECT_THROW((void)r.varint(), WireError);

  // With an eleventh byte present the loop bound alone must stop the
  // decode: ten bytes alone would also end in WireError by running off
  // the buffer, which would hide a loop that reads past bit 63.
  const std::string eleven = ten + '\x01';
  ByteReader bounded(eleven);
  EXPECT_THROW((void)bounded.varint(), WireError);

  std::string nine(9, static_cast<char>(0x81));
  nine.push_back(static_cast<char>(0x01));  // terminator carrying bit 63
  ByteReader ok(nine);
  // Payload 1 at each 7-bit group: bits 0,7,14,...,56 plus bit 63.
  EXPECT_EQ(ok.varint(), 0x8102040810204081ULL);
  EXPECT_TRUE(ok.at_end());

  // svarint shares the decode loop: same overflow, same rejection.
  ByteReader s(ten);
  EXPECT_THROW((void)s.svarint(), WireError);
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(CheckpointFileTest, TryLoadMissingFileStartsClean) {
  const CheckpointLoad load =
      try_load_checkpoint(path("none.ckpt"), "stamp", 1);
  EXPECT_FALSE(load.loaded);
  EXPECT_NE(load.note.find("no checkpoint"), std::string::npos) << load.note;
}

TEST_F(CheckpointFileTest, TryLoadRoundTrip) {
  const Checkpoint c = sample_checkpoint();
  write_file_atomic(path("a.ckpt"), encode_checkpoint(c));
  const CheckpointLoad load =
      try_load_checkpoint(path("a.ckpt"), c.meta.stamp, c.meta.fingerprint);
  ASSERT_TRUE(load.loaded) << load.note;
  EXPECT_TRUE(load.note.empty());
  ASSERT_EQ(load.checkpoint.slots.size(), 2u);
  expect_same_result(load.checkpoint.slots[0].result, adversarial_result());
}

TEST_F(CheckpointFileTest, ForeignStampRejectedWithClearNote) {
  const Checkpoint c = sample_checkpoint();
  write_file_atomic(path("a.ckpt"), encode_checkpoint(c));
  const CheckpointLoad load = try_load_checkpoint(
      path("a.ckpt"), "git other, Debug, GNU 13.1.0", c.meta.fingerprint);
  EXPECT_FALSE(load.loaded);
  EXPECT_NE(load.note.find("different binary"), std::string::npos)
      << load.note;
  EXPECT_NE(load.note.find("--fresh"), std::string::npos) << load.note;
}

TEST_F(CheckpointFileTest, ForeignFingerprintRejectedWithClearNote) {
  const Checkpoint c = sample_checkpoint();
  write_file_atomic(path("a.ckpt"), encode_checkpoint(c));
  const CheckpointLoad load = try_load_checkpoint(
      path("a.ckpt"), c.meta.stamp, c.meta.fingerprint ^ 1);
  EXPECT_FALSE(load.loaded);
  EXPECT_NE(load.note.find("different campaign grid"), std::string::npos)
      << load.note;
}

TEST_F(CheckpointFileTest, TruncatedFileAtEveryByteStartsClean) {
  // The on-disk kill-point sweep: whatever prefix a crash leaves behind,
  // try_load_checkpoint never throws and never "loads" partial progress.
  const Checkpoint c = sample_checkpoint();
  const std::string bytes = encode_checkpoint(c);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::string p = path("trunc.ckpt");
    {
      std::ofstream out(p, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    CheckpointLoad load;
    ASSERT_NO_THROW(load = try_load_checkpoint(p, c.meta.stamp,
                                               c.meta.fingerprint))
        << "truncated to " << len;
    EXPECT_FALSE(load.loaded) << "truncated to " << len;
    EXPECT_FALSE(load.note.empty()) << "truncated to " << len;
  }
}

TEST_F(CheckpointFileTest, OverflowingLengthFieldStartsClean) {
  // The forgiving-load contract must hold for the length-wrap corruption
  // too: start clean with a note, never escape an exception.
  const Checkpoint c = sample_checkpoint();
  std::string bad = encode_checkpoint(c);
  for (std::size_t i = 8; i < 12; ++i) bad[i] = '\xFF';
  {
    std::ofstream out(path("bad.ckpt"), std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  CheckpointLoad load;
  ASSERT_NO_THROW(
      load = try_load_checkpoint(path("bad.ckpt"), c.meta.stamp,
                                 c.meta.fingerprint));
  EXPECT_FALSE(load.loaded);
  EXPECT_FALSE(load.note.empty());
}

TEST_F(CheckpointFileTest, AtomicWriteLeavesNoTempBehind) {
  write_file_atomic(path("a.ckpt"), "payload");
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  EXPECT_EQ(read_file(path("a.ckpt")), "payload");
}

TEST_F(CheckpointFileTest, ManagerFlushesEveryNAndNeverDoubleCounts) {
  CheckpointMeta meta;
  meta.stamp = "s";
  meta.fingerprint = 42;
  meta.total_slots = 4;
  CheckpointManager mgr(path("m.ckpt"), meta, /*every=*/2);
  mgr.record(0, 0, sim::RunResult{});
  EXPECT_FALSE(fs::exists(path("m.ckpt")));  // below the flush threshold
  mgr.record(0, 1, sim::RunResult{});
  ASSERT_TRUE(fs::exists(path("m.ckpt")));
  EXPECT_EQ(decode_checkpoint(read_file(path("m.ckpt"))).slots.size(), 2u);

  // Adopt + record in a "resumed process": adopted slots are not
  // re-counted as new work but are persisted with the next flush.
  CheckpointManager resumed(path("m2.ckpt"), meta, /*every=*/1);
  resumed.adopt(decode_checkpoint(read_file(path("m.ckpt"))).slots);
  EXPECT_EQ(resumed.recorded(), 0u);
  resumed.record(1, 0, sim::RunResult{});
  EXPECT_EQ(resumed.recorded(), 1u);
  EXPECT_EQ(resumed.slots().size(), 3u);
  EXPECT_EQ(decode_checkpoint(read_file(path("m2.ckpt"))).slots.size(), 3u);
}

TEST_F(CheckpointFileTest, ManagerSnapshotsAreOrderIndependent) {
  // Completion order differs across job counts; the snapshot must not.
  CheckpointMeta meta;
  meta.total_slots = 3;
  CheckpointManager a(path("a.ckpt"), meta, 99);
  a.record(1, 0, sim::RunResult{});
  a.record(0, 1, sim::RunResult{});
  a.record(0, 0, sim::RunResult{});
  a.flush();
  CheckpointManager b(path("b.ckpt"), meta, 99);
  b.record(0, 0, sim::RunResult{});
  b.record(1, 0, sim::RunResult{});
  b.record(0, 1, sim::RunResult{});
  b.flush();
  EXPECT_EQ(read_file(path("a.ckpt")), read_file(path("b.ckpt")));
}

TEST(Fingerprint, SensitiveToGridShape) {
  auto grid = [](const char* app, std::uint64_t seed, std::size_t runs) {
    std::vector<sim::CampaignPoint> points;
    points.push_back(sim::CampaignPoint{
        .label = "p",
        .cfg = sim::ExperimentConfig{.app = workload::make_app(app),
                                     .earl = sim::settings_me_eufs(0.05, 0.02),
                                     .seed = seed},
        .runs = runs});
    return points;
  };
  const std::uint64_t base = campaign_fingerprint(grid("dgemm", 1, 2));
  EXPECT_EQ(base, campaign_fingerprint(grid("dgemm", 1, 2)));
  EXPECT_NE(base, campaign_fingerprint(grid("dgemm", 2, 2)));  // seed
  EXPECT_NE(base, campaign_fingerprint(grid("dgemm", 1, 3)));  // runs
  EXPECT_NE(base, campaign_fingerprint(grid("bqcd", 1, 2)));   // app
}

TEST(Fingerprint, SensitiveToPolicyThresholds) {
  // Regression: cpu_th/unc_th feed settings_me_eufs and steer every
  // frequency decision, yet the fingerprint once ignored them — a
  // threshold edit + resume silently averaged old and new results.
  auto grid = [](double cpu_th, double unc_th) {
    std::vector<sim::CampaignPoint> points;
    points.push_back(sim::CampaignPoint{
        .label = "p",
        .cfg =
            sim::ExperimentConfig{.app = workload::make_app("dgemm"),
                                  .earl =
                                      sim::settings_me_eufs(cpu_th, unc_th),
                                  .seed = 1},
        .runs = 2});
    return points;
  };
  const std::uint64_t base = campaign_fingerprint(grid(0.05, 0.02));
  EXPECT_EQ(base, campaign_fingerprint(grid(0.05, 0.02)));
  EXPECT_NE(base, campaign_fingerprint(grid(0.10, 0.02)));  // cpu_th
  EXPECT_NE(base, campaign_fingerprint(grid(0.05, 0.04)));  // unc_th
}

TEST(Fingerprint, SensitiveToFaultPlanContents) {
  // Regression: only specs.size() was hashed, so editing a fault plan
  // while keeping its event count passed the resume gate.
  auto grid = [](std::shared_ptr<const faults::FaultPlan> plan) {
    std::vector<sim::CampaignPoint> points;
    points.push_back(sim::CampaignPoint{
        .label = "p",
        .cfg = sim::ExperimentConfig{.app = workload::make_app("dgemm"),
                                     .earl = sim::settings_me_eufs(),
                                     .seed = 1,
                                     .fault_plan = std::move(plan)},
        .runs = 2});
    return points;
  };
  auto make_plan = [](double probability) {
    faults::FaultPlan p;
    faults::FaultSpec s;
    s.family = faults::FaultFamily::kMsrDrop;
    s.start_s = 5.0;
    s.probability = probability;
    p.specs.push_back(s);
    return std::make_shared<const faults::FaultPlan>(std::move(p));
  };
  const std::uint64_t base = campaign_fingerprint(grid(make_plan(0.5)));
  // Equal contents hash equal even through distinct plan objects…
  EXPECT_EQ(base, campaign_fingerprint(grid(make_plan(0.5))));
  // …but same-size, different-content plans must differ, as must
  // dropping the plan entirely.
  EXPECT_NE(base, campaign_fingerprint(grid(make_plan(0.9))));
  EXPECT_NE(base, campaign_fingerprint(grid(nullptr)));
}

}  // namespace
}  // namespace ear::service
