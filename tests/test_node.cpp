#include "simhw/node.hpp"

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "simhw/cluster.hpp"
#include "simhw/kernel_memo.hpp"

// Every heap allocation in this test binary goes through here, so a test
// can count what building nodes allocates.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so no call site sees a new-expression's pointer reach
// free() (GCC's -Wmismatched-new-delete would flag the inlined pair).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ear::simhw {
namespace {

using common::Freq;
using common::Secs;

NoiseModel quiet() { return NoiseModel{.time_sigma = 0.0, .power_sigma = 0.0}; }

WorkDemand demand() {
  WorkDemand d;
  d.instructions_per_core = 2.0e9;
  d.cpi_core = 0.5;
  d.bytes = 30e9;
  d.active_cores = 40;
  return d;
}

TEST(SimNode, StartsAtNominalWithOpenWindow) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  EXPECT_EQ(node.cpu_freq(), Freq::ghz(2.4));
  const auto lim = node.uncore_limit();
  EXPECT_EQ(lim.max_freq, Freq::ghz(2.4));
  EXPECT_EQ(lim.min_freq, Freq::ghz(1.2));
}

TEST(SimNode, ExecuteAdvancesClockAndCounters) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  const auto out = node.execute_iteration(demand());
  EXPECT_GT(out.perf.iter_time.value, 0.0);
  EXPECT_DOUBLE_EQ(node.clock().value, out.perf.iter_time.value);
  EXPECT_GT(node.counters().instructions, 0.0);
  EXPECT_GT(node.counters().cycles, 0.0);
  EXPECT_GT(node.counters().cas_transactions, 0.0);
  EXPECT_GT(node.inm().exact().value, 0.0);
}

TEST(SimNode, EnergyEqualsPowerTimesTime) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  const auto out = node.execute_iteration(demand());
  EXPECT_NEAR(out.energy.value,
              out.power.total().value * out.perf.iter_time.value, 1e-6);
}

TEST(SimNode, PstateChangesTakeEffect) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  const auto fast = node.execute_iteration(demand());
  node.set_cpu_pstate(15);  // 1.0 GHz
  EXPECT_EQ(node.cpu_freq(), Freq::ghz(1.0));
  const auto slow = node.execute_iteration(demand());
  EXPECT_GT(slow.perf.iter_time.value, fast.perf.iter_time.value * 1.5);
}

TEST(SimNode, PinnedUncoreWindowIsObeyed) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  node.set_uncore_limit_all({.max_freq = Freq::ghz(1.5),
                             .min_freq = Freq::ghz(1.5)});
  const auto out = node.execute_iteration(demand());
  EXPECT_EQ(out.uncore_freq, Freq::ghz(1.5));
}

TEST(SimNode, WindowMaxLimitsGovernor) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  node.set_uncore_limit_all({.max_freq = Freq::ghz(1.8),
                             .min_freq = Freq::ghz(1.2)});
  for (int i = 0; i < 5; ++i) {
    const auto out = node.execute_iteration(demand());
    EXPECT_LE(out.uncore_freq, Freq::ghz(1.8));
  }
}

TEST(SimNode, LowerUncoreLowersPower) {
  SimNode a(make_skylake_6148_node(), 1, quiet());
  SimNode b(make_skylake_6148_node(), 1, quiet());
  b.set_uncore_limit_all({.max_freq = Freq::ghz(1.2),
                          .min_freq = Freq::ghz(1.2)});
  const auto pa = a.execute_iteration(demand());
  const auto pb = b.execute_iteration(demand());
  EXPECT_LT(pb.power.total().value, pa.power.total().value);
}

TEST(SimNode, AvgFrequencyCountersTrackSettings) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  for (int i = 0; i < 10; ++i) node.execute_iteration(demand());
  const auto& c = node.counters();
  const double avg_cpu = c.cpu_freq_cycles / c.elapsed_seconds / 1e6;
  const double avg_imc = c.imc_freq_cycles / c.elapsed_seconds / 1e6;
  EXPECT_NEAR(avg_cpu, 2.39, 0.02);  // droop below the 2.40 request
  EXPECT_NEAR(avg_imc, 2.39, 0.02);  // dither below the 2.40 limit
}

TEST(SimNode, WaitSecondsAccumulated) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  WorkDemand d = demand();
  d.comm_seconds = 0.25;
  node.execute_iteration(d);
  EXPECT_NEAR(node.counters().wait_seconds, 0.25, 1e-9);
}

TEST(SimNode, IdleConsumesBaselinePower) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  node.idle(Secs{10.0});
  EXPECT_DOUBLE_EQ(node.clock().value, 10.0);
  const double watts = node.inm().exact().value / 10.0;
  EXPECT_GT(watts, 50.0);
  EXPECT_LT(watts, 200.0);  // far below a busy node
}

TEST(SimNode, RaplPkgAndDramAccumulate) {
  SimNode node(make_skylake_6148_node(), 1, quiet());
  node.execute_iteration(demand());
  EXPECT_GT(node.rapl().pkg(0).raw(), 0u);
  EXPECT_GT(node.rapl().pkg(1).raw(), 0u);
  EXPECT_GT(node.rapl().dram().raw(), 0u);
}

TEST(SimNode, NoiseProducesRunVariation) {
  SimNode a(make_skylake_6148_node(), 1);
  SimNode b(make_skylake_6148_node(), 2);
  const auto ra = a.execute_iteration(demand());
  const auto rb = b.execute_iteration(demand());
  EXPECT_NE(ra.perf.iter_time.value, rb.perf.iter_time.value);
  // ...but only slightly (sub-percent sigma).
  EXPECT_NEAR(ra.perf.iter_time.value, rb.perf.iter_time.value,
              0.05 * ra.perf.iter_time.value);
}

TEST(SimNode, DeterministicForEqualSeeds) {
  SimNode a(make_skylake_6148_node(), 7);
  SimNode b(make_skylake_6148_node(), 7);
  for (int i = 0; i < 5; ++i) {
    const auto ra = a.execute_iteration(demand());
    const auto rb = b.execute_iteration(demand());
    EXPECT_DOUBLE_EQ(ra.perf.iter_time.value, rb.perf.iter_time.value);
    EXPECT_DOUBLE_EQ(ra.power.total().value, rb.power.total().value);
  }
}

// Every field of a PerfResult as raw bits, so equality means bitwise.
std::vector<std::uint64_t> bits(const PerfResult& r) {
  return {std::bit_cast<std::uint64_t>(r.iter_time.value),
          std::bit_cast<std::uint64_t>(r.cycles_per_core),
          std::bit_cast<std::uint64_t>(r.instructions_per_core),
          std::bit_cast<std::uint64_t>(r.bytes),
          std::bit_cast<std::uint64_t>(r.cpi),
          std::bit_cast<std::uint64_t>(r.tpi),
          std::bit_cast<std::uint64_t>(r.gbps),
          std::bit_cast<std::uint64_t>(r.bw_utilisation),
          std::bit_cast<std::uint64_t>(r.avx512_fraction),
          std::bit_cast<std::uint64_t>(r.compute_time.value),
          std::bit_cast<std::uint64_t>(r.bandwidth_time.value),
          r.bandwidth_bound ? 1u : 0u};
}

// Every field of a node a caller can read, as raw bits: the clock, the
// INM ground truth, reading and elapsed time, the three RAPL registers,
// the PMU counters and the uncore frequency.
std::vector<std::uint64_t> bits(const SimNode& n) {
  const PmuCounters& c = n.counters();
  return {std::bit_cast<std::uint64_t>(n.clock().value),
          std::bit_cast<std::uint64_t>(n.inm().exact().value),
          n.inm().read_joules(),
          std::bit_cast<std::uint64_t>(n.inm().elapsed().value),
          n.rapl().pkg(0).raw(),
          n.config().sockets > 1 ? n.rapl().pkg(1).raw() : 0,
          n.rapl().dram().raw(),
          std::bit_cast<std::uint64_t>(c.instructions),
          std::bit_cast<std::uint64_t>(c.cycles),
          std::bit_cast<std::uint64_t>(c.avx512_ops),
          std::bit_cast<std::uint64_t>(c.cas_transactions),
          std::bit_cast<std::uint64_t>(c.cpu_freq_cycles),
          std::bit_cast<std::uint64_t>(c.imc_freq_cycles),
          std::bit_cast<std::uint64_t>(c.elapsed_seconds),
          std::bit_cast<std::uint64_t>(c.wait_seconds),
          n.uncore_freq().as_khz()};
}

// settle_idle(dt, k) is the event core's lazy idle path: it must leave a
// node exactly as k idle(dt) calls do, at any k, under any interleaving
// of P-state moves, uncore-window writes and busy iterations — and the
// next busy iteration must not tell the two apart.
TEST(SimNode, SettleIdleEqualsRepeatedIdle) {
  for (const std::uint64_t k : {0u, 1u, 2u, 63u, 1000u}) {
    SimNode ref(make_skylake_6148_node(), 9);
    SimNode fast(make_skylake_6148_node(), 9);
    const auto both = [&](auto&& fn) {
      fn(ref);
      fn(fast);
    };
    const auto idle_both = [&](double dt) {
      for (std::uint64_t i = 0; i < k; ++i) ref.idle(Secs{dt});
      fast.settle_idle(Secs{dt}, k);
      EXPECT_EQ(bits(ref), bits(fast)) << k << " rounds of " << dt << " s";
    };
    idle_both(1.0);
    idle_both(0.25);  // publishes on every fourth round
    both([](SimNode& n) { n.set_cpu_pstate(Pstate{3}); });
    idle_both(0.75);  // core frequency moved: idle power must not
    both([](SimNode& n) {
      n.set_uncore_limit_all({Freq::ghz(1.6), Freq::ghz(1.2)});
    });
    idle_both(0.5);  // uncore window narrowed: a new quantum
    both([](SimNode& n) { (void)n.execute_iteration(demand()); });
    idle_both(0.3);  // from an off-grid clock, governor state perturbed
    const IterationOutcome a = ref.execute_iteration(demand());
    const IterationOutcome b = fast.execute_iteration(demand());
    EXPECT_EQ(bits(a.perf), bits(b.perf)) << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energy.value),
              std::bit_cast<std::uint64_t>(b.energy.value));
    EXPECT_EQ(a.uncore_freq.as_khz(), b.uncore_freq.as_khz());
    EXPECT_EQ(bits(ref), bits(fast)) << k;
  }
}

// idle_until lands on the requested time whatever the rounding of the
// gap, and is idle() of that gap otherwise.
TEST(SimNode, IdleUntilLandsExactly) {
  SimNode a(make_skylake_6148_node(), 3);
  SimNode b(make_skylake_6148_node(), 3);
  (void)a.execute_iteration(demand());
  (void)b.execute_iteration(demand());
  const double t = 7.0;
  const double gap = t - a.clock().value;
  a.idle_until(Secs{t});
  b.idle(Secs{gap});
  EXPECT_EQ(a.clock().value, t);
  EXPECT_EQ(a.inm().counts(), b.inm().counts());
  EXPECT_EQ(a.rapl().dram().raw(), b.rapl().dram().raw());
  a.idle_until(Secs{t - 1.0});  // already past: no-op
  EXPECT_EQ(a.clock().value, t);
  EXPECT_EQ(a.inm().counts(), b.inm().counts());
}

// Everything a stretch moves, as raw bits: bits(n), the RAPL and INM
// accumulators in whole counts, and the noise stream the node's next
// iteration draws from.
std::vector<std::uint64_t> stretch_bits(const SimNode& n) {
  std::vector<std::uint64_t> out = bits(n);
  out.push_back(n.inm().counts());
  for (std::size_t s = 0; s < n.config().sockets; ++s) {
    out.push_back(n.rapl().pkg(s).counts());
  }
  out.push_back(n.rapl().dram().counts());
  for (const std::uint64_t word : n.noise_state()) out.push_back(word);
  return out;
}

/// Nodes and demands a stretch runs: memory-bound, compute-bound and
/// MPI-waiting work on the two-socket Skylake, a one-socket node, and a
/// GPU node whose busy fraction moves with every iteration's time.
struct StretchCase {
  const char* name;
  NodeConfig cfg;
  WorkDemand demand;
};

std::vector<StretchCase> stretch_cases() {
  std::vector<StretchCase> out;
  WorkDemand memory = demand();
  memory.instructions_per_core = 2.0e8;
  memory.bytes = 8e9;
  WorkDemand compute = memory;
  compute.bytes = 1e8;
  compute.vpi = 0.4;
  WorkDemand mpi = memory;
  mpi.comm_seconds = 0.03;
  mpi.relaxed_wait_fraction = 0.3;
  out.push_back({"memory", make_skylake_6148_node(), memory});
  out.push_back({"compute", make_skylake_6148_node(), compute});
  out.push_back({"mpi", make_skylake_6148_node(), mpi});
  NodeConfig one = make_skylake_6148_node();
  one.sockets = 1;
  WorkDemand half = memory;
  half.active_cores = one.total_cores();
  out.push_back({"one-socket", one, half});
  WorkDemand gpu = compute;
  gpu.gpu_seconds = 0.05;
  gpu.gpus_busy = 1;
  gpu.active_cores = 4;
  out.push_back({"gpu", make_skylake_6142m_gpu_node(), gpu});
  return out;
}

// With the dither gate closed a stretch is execute_iteration in a loop
// under the same stop rule, bit for bit: clock, PMU counters, RAPL and
// INM counts, the published INM value, the uncore frequency and the
// noise stream. Rounds of 0.3 s run several iterations each, every
// fourth is cut by max_iters, and both nodes idle to each boundary as
// the facility does.
TEST(SimNode, StretchMatchesIterationLoop) {
  const HwUfsParams closed{.dither_probability = 0.0};
  for (const StretchCase& c : stretch_cases()) {
    SimNode stretch(c.cfg, 21, NoiseModel{}, closed);
    SimNode loop(c.cfg, 21, NoiseModel{}, closed);
    stretch.set_cpu_pstate(Pstate{2});
    loop.set_cpu_pstate(Pstate{2});
    std::size_t left = 60;
    for (int round = 1; round <= 40 && left > 0; ++round) {
      const double stop = 0.3 * round;
      const std::size_t cap = round % 4 == 0 ? 1 : left;
      const StretchSummary s = stretch.execute_stretch(c.demand, cap, stop);
      std::size_t ran = 0;
      Freq f_imc{};
      while (ran < cap && loop.clock().value < stop) {
        f_imc = loop.execute_iteration(c.demand).uncore_freq;
        ++ran;
      }
      ASSERT_EQ(s.iterations, ran) << c.name << ", round " << round;
      ASSERT_EQ(s.uncore_freq, f_imc) << c.name << ", round " << round;
      ASSERT_EQ(stretch_bits(stretch), stretch_bits(loop))
          << c.name << ", round " << round;
      left -= ran;
      stretch.idle_until(Secs{stop});
      loop.idle_until(Secs{stop});
    }
    EXPECT_EQ(left, 0u) << c.name;
  }
}

// A stretch over a pre-drawn noise row is the plain stretch, stream
// included, whatever the row's depth: empty, shorter than the iterations
// run, as long, longer, and the deepest row, for stretches cut by the
// stop time and by max_iters, with the dither gate open.
TEST(SimNode, PredrawnStretchMatchesScalar) {
  for (const StretchCase& c : stretch_cases()) {
    for (const std::size_t cap : {std::size_t{1000}, std::size_t{3}}) {
      // Both nodes step once first, so neither stream nor governor is
      // fresh; the probe counts the iterations the stretch runs, about
      // five before the stop.
      const auto warm = [&c] {
        SimNode n(c.cfg, 31);
        (void)n.execute_iteration(c.demand);
        return n;
      };
      SimNode probe = warm();
      const double stop = probe.clock().value * 5.5;
      const std::size_t k =
          probe.execute_stretch(c.demand, cap, stop).iterations;
      ASSERT_GT(k, 1u) << c.name;
      ASSERT_LT(k, kNoisePairs) << c.name;
      for (const std::size_t pairs :
           {std::size_t{0}, std::size_t{1}, k - 1, k, k + 1, kNoisePairs}) {
        SimNode plain = warm();
        SimNode pre = warm();
        NoiseLane row;
        row.state = pre.noise_state();
        row.pairs = pairs;
        noise_lanes({&row, 1});
        const StretchSummary a = plain.execute_stretch(c.demand, cap, stop);
        const StretchSummary b = pre.execute_stretch(c.demand, cap, stop, row);
        const std::string where = std::string(c.name) + ", cap " +
                                  std::to_string(cap) + ", " +
                                  std::to_string(pairs) + " pairs";
        EXPECT_EQ(a.iterations, k) << where;
        EXPECT_EQ(b.iterations, k) << where;
        EXPECT_EQ(a.uncore_freq, b.uncore_freq) << where;
        EXPECT_EQ(stretch_bits(plain), stretch_bits(pre)) << where;
        // The next iteration cannot tell the two apart.
        const IterationOutcome x = plain.execute_iteration(c.demand);
        const IterationOutcome y = pre.execute_iteration(c.demand);
        EXPECT_EQ(bits(x.perf), bits(y.perf)) << where;
        EXPECT_EQ(stretch_bits(plain), stretch_bits(pre)) << where;
      }
    }
  }
  // A row must start where the node's stream is, and a stretch that
  // cannot start moves nothing.
  SimNode node(make_skylake_6148_node(), 5);
  NoiseLane row;
  row.state = node.noise_state();
  row.pairs = 2;
  noise_lanes({&row, 1});
  const std::vector<std::uint64_t> before = stretch_bits(node);
  EXPECT_EQ(node.execute_stretch(demand(), 5, 0.0, row).iterations, 0u);
  EXPECT_EQ(node.execute_stretch(demand(), 0, 10.0, row).iterations, 0u);
  EXPECT_EQ(stretch_bits(node), before);
  (void)node.execute_iteration(demand());
  EXPECT_THROW((void)node.execute_stretch(demand(), 5, 10.0, row),
               common::InvariantError);
}

// A node stores only what differs per node, and a facility's size is
// bounded by bytes per node. The budget, in bytes: the shared
// description's pointer 16, the noise stream 32, the P-state 8, two
// sockets of 96 (the MSR file's two raw registers, write count, fault
// hook and side table 56; the UFS loop's stream and selection 40), the
// PMU counters 64, RAPL 32, INM 24, the clock 8 and the bandwidth
// feedback 8. Nothing derivable (a model cache, a decoded register)
// is kept.
TEST(SimNode, StaysWithinItsByteBudget) {
  EXPECT_LE(sizeof(SimNode), 384u);
}

// execute_stretches leaves every node as its own execute_stretch does,
// whatever its row's prediction: stretches longer than a row holds,
// shorter than predicted (cut by max_iters), none at all (no iterations
// left, or a clock already past the stop), over two passes (more than 16
// runs) listed in an order unrelated to the nodes'. It allocates
// nothing. Consecutive runs of one job share one hoisted stretch, so the
// second half lists a job's nodes together, interleaved with runs that
// differ from their predecessor in exactly one of the keys the sharing
// compares: the bandwidth input, the P-state, socket 0's EPB, the uncore
// window, the node type, or the demand (other contents, or equal
// contents in another object).
TEST(SimNode, StretchBatchMatchesPlainStretches) {
  constexpr std::size_t kNodes = 37;
  const NodeConfig cfg = make_skylake_6148_node();
  Cluster plain(cfg, kNodes, 13);
  Cluster batched(cfg, kNodes, 13);
  std::vector<WorkDemand> demands;
  for (std::size_t n = 0; n < kNodes; ++n) {
    WorkDemand d = demand();
    d.instructions_per_core = 5.0e7 * static_cast<double>(1 + n % 13);
    d.bytes = 1e9 * static_cast<double>(1 + n % 7);
    if (n % 9 == 8) d.instructions_per_core = 4.0e9;  // overshoots rounds
    demands.push_back(d);
  }
  for (int round = 1; round <= 8; ++round) {
    const double stop = 0.5 * round;
    std::vector<SimNode::StretchRun> runs;
    std::vector<StretchSummary> want(kNodes);
    for (std::size_t k = 0; k < kNodes; ++k) {
      const std::size_t n = kNodes - 1 - k;
      const std::size_t cap = n % 11 == 4 ? 0 : (n % 5 == 2 ? 2 : 1000);
      want[n] = plain.node(n).execute_stretch(demands[n], cap, stop);
      runs.push_back({.node = &batched.node(n),
                      .demand = &demands[n],
                      .max_iters = cap,
                      .stop_before_s = stop});
    }
    const std::size_t allocations = g_allocations.load();
    SimNode::execute_stretches(runs);
    EXPECT_EQ(g_allocations.load(), allocations);
    for (std::size_t k = 0; k < kNodes; ++k) {
      const std::size_t n = kNodes - 1 - k;
      ASSERT_EQ(runs[k].out.iterations, want[n].iterations)
          << "node " << n << ", round " << round;
      ASSERT_EQ(runs[k].out.uncore_freq, want[n].uncore_freq);
      ASSERT_EQ(stretch_bits(plain.node(n)), stretch_bits(batched.node(n)))
          << "node " << n << ", round " << round;
    }
    for (std::size_t n = 0; n < kNodes; ++n) {
      plain.node(n).idle_until(Secs{stop});
      batched.node(n).idle_until(Secs{stop});
    }
  }

  // A fully vectorised job under the AVX-512 licence: the governor
  // tracks the licenced clock from the first iteration, so the EPB bias
  // moves its target too.
  WorkDemand job = demand();
  job.instructions_per_core = 5.0e7;
  job.bytes = 2e9;
  job.vpi = 0.9;
  const WorkDemand same = job;  // equal contents, another object
  WorkDemand other = job;
  other.bytes = 6e9;
  WorkDemand busy = job;  // warms one node to another bandwidth input
  busy.bytes = 20e9;
  busy.vpi = 0.0;
  NodeConfig varied = cfg;  // another node type, same ladder and window
  varied.memory.fixed_latency_ns += 10.0;
  varied.power.base_watts += 10.0;
  const auto spec = std::make_shared<const NodeSpec>(NodeSpec{.config = cfg});
  const auto varied_spec =
      std::make_shared<const NodeSpec>(NodeSpec{.config = varied});
  enum class Key { kNone, kBandwidth, kPstate, kEpb, kWindow, kType,
                   kDemand, kSameDemand };
  // One full pass of 16 runs, each differing run between two that
  // differ in nothing, then three runs that cross into a second pass.
  const std::vector<Key> layout = {
      Key::kNone,   Key::kNone, Key::kBandwidth,  Key::kNone,
      Key::kPstate, Key::kNone, Key::kEpb,        Key::kNone,
      Key::kWindow, Key::kNone, Key::kType,       Key::kNone,
      Key::kDemand, Key::kNone, Key::kSameDemand, Key::kNone,
      Key::kNone,   Key::kNone, Key::kNone};
  const auto build = [&](std::vector<SimNode>& nodes) {
    nodes.reserve(layout.size());
    for (std::size_t k = 0; k < layout.size(); ++k) {
      const Key key = layout[k];
      SimNode& node =
          nodes.emplace_back(key == Key::kType ? varied_spec : spec, 50 + k);
      if (key == Key::kBandwidth) (void)node.execute_iteration(busy);
      if (key == Key::kPstate) node.set_cpu_pstate(Pstate{4});
      if (key == Key::kEpb) node.msr(0).write(kMsrEnergyPerfBias, 12);
      if (key == Key::kWindow) {
        node.set_uncore_limit_all({Freq::ghz(1.5), Freq::ghz(1.5)});
      }
    }
  };
  const auto demand_of = [&](Key key) -> const WorkDemand* {
    if (key == Key::kDemand) return &other;
    return key == Key::kSameDemand ? &same : &job;
  };
  std::vector<SimNode> solo;
  std::vector<SimNode> shared;
  build(solo);
  build(shared);
  for (int round = 1; round <= 4; ++round) {
    const double stop = 0.3 * round;
    std::vector<SimNode::StretchRun> runs;
    for (std::size_t k = 0; k < layout.size(); ++k) {
      runs.push_back({.node = &shared[k],
                      .demand = demand_of(layout[k]),
                      .max_iters = 1000,
                      .stop_before_s = stop});
    }
    SimNode::execute_stretches(runs);
    for (std::size_t k = 0; k < layout.size(); ++k) {
      const StretchSummary want =
          solo[k].execute_stretch(*demand_of(layout[k]), 1000, stop);
      ASSERT_GT(want.iterations, 1u) << "run " << k << ", round " << round;
      ASSERT_EQ(runs[k].out.iterations, want.iterations)
          << "run " << k << ", round " << round;
      ASSERT_EQ(runs[k].out.uncore_freq, want.uncore_freq)
          << "run " << k << ", round " << round;
      ASSERT_EQ(stretch_bits(solo[k]), stretch_bits(shared[k]))
          << "run " << k << ", round " << round;
      solo[k].idle_until(Secs{stop});
      shared[k].idle_until(Secs{stop});
    }
  }
}

TEST(IterationMemo, MatchesKernelBitwise) {
  const NodeConfig cfg = make_skylake_6148_node();
  IterationMemo memo(cfg);
  WorkDemand other = demand();
  other.bytes = 5e9;
  const Freq cpu = Freq::ghz(2.4);
  const Freq on_grid = Freq::ghz(2.0);
  const Freq dithered = Freq::khz(2'386'400);  // between 100 MHz steps
  for (const auto& [d, imc] : {std::pair{demand(), on_grid},
                               std::pair{demand(), dithered},
                               std::pair{other, dithered}}) {
    const auto want = bits(evaluate_iteration(cfg, d, cpu, imc));
    EXPECT_EQ(bits(memo.evaluate(cfg, d, cpu, imc)), want);  // miss
    EXPECT_EQ(bits(memo.evaluate(cfg, d, cpu, imc)), want);  // hit
  }
  EXPECT_EQ(memo.misses(), 3u);
  EXPECT_EQ(memo.hits(), 3u);
}

TEST(IterationMemo, OnlyAnExactRepeatHits) {
  const NodeConfig cfg = make_skylake_6148_node();
  IterationMemo memo(cfg);
  WorkDemand d = demand();
  Freq cpu = Freq::ghz(2.4);
  Freq imc = Freq::ghz(2.0);
  (void)memo.evaluate(cfg, d, cpu, imc);
  (void)memo.evaluate(cfg, d, cpu, imc);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  d.comm_seconds = 0.1;  // demand moves
  (void)memo.evaluate(cfg, d, cpu, imc);
  EXPECT_EQ(memo.misses(), 2u);
  cpu = Freq::ghz(2.2);  // P-state moves
  (void)memo.evaluate(cfg, d, cpu, imc);
  EXPECT_EQ(memo.misses(), 3u);
  imc = Freq::khz(2'000'100);  // uncore moves by 100 kHz
  (void)memo.evaluate(cfg, d, cpu, imc);
  EXPECT_EQ(memo.misses(), 4u);
  EXPECT_EQ(memo.hits(), 1u);
}

TEST(IterationMemo, ReturnsToAnEarlierPointBitwise) {
  const NodeConfig cfg = make_skylake_6148_node();
  IterationMemo memo(cfg);
  const Freq cpu = Freq::ghz(2.4);
  const Freq a = Freq::khz(2'386'400);
  const Freq b = Freq::ghz(1.6);
  const auto first = bits(memo.evaluate(cfg, demand(), cpu, a));
  EXPECT_NE(bits(memo.evaluate(cfg, demand(), cpu, b)), first);
  EXPECT_EQ(bits(memo.evaluate(cfg, demand(), cpu, a)), first);
  EXPECT_EQ(memo.misses(), 3u);  // one entry: B replaced A
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(Cluster, IndependentlySeededNodes) {
  Cluster cluster(make_skylake_6148_node(), 3, 42);
  const auto r0 = cluster.node(0).execute_iteration(demand());
  const auto r1 = cluster.node(1).execute_iteration(demand());
  EXPECT_NE(r0.perf.iter_time.value, r1.perf.iter_time.value);
  EXPECT_EQ(cluster.size(), 3u);
  EXPECT_GT(cluster.total_energy().value, 0.0);
  EXPECT_GT(cluster.max_clock().value, 0.0);
}

TEST(Cluster, EmptyClusterRejected) {
  EXPECT_THROW(Cluster(make_skylake_6148_node(), 0, 1),
               common::InvariantError);
}

TEST(Cluster, NodesShareOneConfig) {
  const Cluster cluster(make_icelake_8358_node(), 50, 3);
  const NodeConfig* first = &cluster.node(0).config();
  for (const SimNode& node : cluster) EXPECT_EQ(&node.config(), first);
  EXPECT_EQ(first->name, make_icelake_8358_node().name);
}

// Building a node allocates nothing: the island's description is shared
// and the per-socket state is inline, so the allocations a cluster makes
// do not depend on its size.
TEST(Cluster, AllocationsDoNotGrowWithNodeCount) {
  const auto allocations = [](std::size_t nodes) {
    const NodeConfig cfg = make_skylake_6142m_gpu_node();
    const std::size_t before = g_allocations.load();
    { const Cluster cluster(cfg, nodes, 3); }
    return g_allocations.load() - before;
  };
  const std::size_t small = allocations(100);
  EXPECT_GT(small, 0u);  // the counter sees the node array itself
  EXPECT_EQ(allocations(1000), small);
}

// The batched governor pass (one dither_lanes call over every socket of
// every node) leaves each node exactly as its own execute_iteration does:
// across pass boundaries (more than 16 nodes), partial vector groups,
// closed dither gates (idle nodes, a zero probability), pinned and
// narrowed windows, P-state and EPB moves, one- and two-socket nodes.
TEST(Cluster, BatchedGovernorsEqualPerNodeIterations) {
  for (const std::size_t sockets : {std::size_t{1}, std::size_t{2}}) {
    for (const double p : {0.12, 0.0}) {
      NodeConfig cfg = make_skylake_6148_node();
      cfg.sockets = sockets;
      const HwUfsParams ufs{.dither_probability = p};
      constexpr std::size_t kNodes = 37;
      Cluster ref(cfg, kNodes, 5, NoiseModel{}, ufs);
      Cluster batched(cfg, kNodes, 5, NoiseModel{}, ufs);
      std::vector<WorkDemand> demands;
      for (std::size_t n = 0; n < kNodes; ++n) {
        WorkDemand d = demand();
        d.bytes = 5e9 * static_cast<double>(1 + n % 9);
        d.instructions_per_core = 1.0e9 * static_cast<double>(1 + n % 5);
        d.active_cores = cfg.total_cores();
        if (n % 7 == 3) {  // no active cores: the gate stays closed
          d.active_cores = 0;
          d.instructions_per_core = 0.0;
        }
        demands.push_back(d);
      }
      std::vector<Freq> f_imc(kNodes);
      for (int it = 0; it < 12; ++it) {
        if (it == 4) {
          for (Cluster* c : {&ref, &batched}) {
            c->node(1).set_uncore_limit_all({Freq::ghz(1.7), Freq::ghz(1.7)});
            c->node(2).set_uncore_limit_all({Freq::ghz(2.0), Freq::ghz(1.2)});
            c->node(5).set_cpu_pstate(Pstate{4});
            for (std::size_t s = 0; s < sockets; ++s) {
              c->node(6).msr(s).write(kMsrEnergyPerfBias, 10);
            }
          }
        }
        batched.run_governors(demands, f_imc);
        for (std::size_t n = 0; n < kNodes; ++n) {
          const IterationOutcome a = ref.node(n).execute_iteration(demands[n]);
          const IterationOutcome b =
              batched.node(n).finish_iteration(demands[n], f_imc[n]);
          ASSERT_EQ(a.uncore_freq, b.uncore_freq)
              << sockets << " sockets, p " << p << ", node " << n
              << ", iteration " << it;
          ASSERT_EQ(bits(a.perf), bits(b.perf));
          ASSERT_EQ(bits(ref.node(n)), bits(batched.node(n)))
              << sockets << " sockets, p " << p << ", node " << n
              << ", iteration " << it;
        }
      }
    }
  }
}

TEST(Cluster, RunGovernorsAllocatesNothing) {
  Cluster cluster(make_skylake_6148_node(), 40, 9);
  const std::vector<WorkDemand> demands(cluster.size(), demand());
  std::vector<Freq> f_imc(cluster.size());
  const std::size_t before = g_allocations.load();
  for (int it = 0; it < 3; ++it) cluster.run_governors(demands, f_imc);
  EXPECT_EQ(g_allocations.load(), before);
}

// idle() and settle_idle() take the governor's idle frequency straight
// from hw_ufs_idle_freq; this proves it is what the per-period loop
// selects with no active cores, at any period count and window, and that
// the loop draws nothing there.
TEST(SimNode, IdleFreqIsTheGovernorAtIdle) {
  const NodeConfig cfg = make_skylake_6148_node();
  const UfsInputs idle_in{.requested_core_freq = Freq::ghz(2.4),
                          .effective_core_freq = Freq::ghz(2.4),
                          .bw_utilisation = 0.0,
                          .relaxed_fraction = 1.0,
                          .active_cores = 0,
                          .epb = 6};
  for (const UncoreRatioLimit limit :
       {UncoreRatioLimit{Freq::ghz(2.4), Freq::ghz(1.2)},
        UncoreRatioLimit{Freq::ghz(1.7), Freq::ghz(1.7)},
        UncoreRatioLimit{Freq::ghz(2.0), Freq::ghz(1.2)},
        UncoreRatioLimit{Freq::ghz(2.4), Freq::ghz(1.6)}}) {
    const Freq want = hw_ufs_idle_freq(cfg, limit);
    for (const std::size_t periods : {1u, 2u, 25u, 100u, 400u}) {
      HwUfsGovernor gov(cfg, HwUfsParams{}, 11);
      HwUfsGovernor fresh(cfg, HwUfsParams{}, 11);
      const double sum = gov.evaluate_periods(idle_in, limit, periods);
      EXPECT_EQ(sum, static_cast<double>(periods * want.as_khz()));
      EXPECT_EQ(gov.current(), want);
      // The stream is untouched: the next open-gate stretch matches a
      // fresh governor's.
      UfsInputs busy = idle_in;
      busy.active_cores = 40;
      EXPECT_EQ(gov.evaluate_periods(busy, limit, 97),
                fresh.evaluate_periods(busy, limit, 97));
    }
    for (const double dt : {0.001, 0.25, 1.0, 5.0}) {
      SimNode node(cfg, 3);
      node.set_uncore_limit_all(limit);
      node.idle(Secs{dt});
      EXPECT_EQ(node.uncore_freq(), want);
      EXPECT_EQ(node.counters().imc_freq_cycles,
                static_cast<double>(want.as_khz()) * dt);
    }
  }
}

TEST(SimNode, RefusesMoreSocketsThanTheBound) {
  NodeConfig cfg = make_skylake_6148_node();
  cfg.sockets = kMaxSockets + 1;
  EXPECT_THROW(SimNode(cfg, 1), common::InvariantError);
  cfg.sockets = 0;
  EXPECT_THROW(SimNode(cfg, 1), common::InvariantError);
}

// A copy owns (a share of) everything it reads: destroying the source
// must leave it running exactly like a node that was never copied. The
// governors used to point into the source's config, which the asan
// build reports as a heap-use-after-free here.
TEST(SimNode, CopyOutlivesSource) {
  auto source = std::make_unique<SimNode>(make_skylake_6148_node(), 7);
  (void)source->execute_iteration(demand());
  SimNode copy = *source;
  source.reset();

  SimNode uncopied(make_skylake_6148_node(), 7);
  (void)uncopied.execute_iteration(demand());
  for (int i = 0; i < 50; ++i) {
    const IterationOutcome a = copy.execute_iteration(demand());
    const IterationOutcome b = uncopied.execute_iteration(demand());
    ASSERT_EQ(bits(a.perf), bits(b.perf)) << "iteration " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.energy.value),
              std::bit_cast<std::uint64_t>(b.energy.value));
    ASSERT_EQ(a.uncore_freq.as_khz(), b.uncore_freq.as_khz());
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(copy.inm().exact().value),
            std::bit_cast<std::uint64_t>(uncopied.inm().exact().value));
  EXPECT_EQ(copy.uncore_freq().as_khz(), uncopied.uncore_freq().as_khz());
}

}  // namespace
}  // namespace ear::simhw
