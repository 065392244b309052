// Microbenchmarks (google-benchmark): runtime costs of the EAR components
// that sit on the application's critical path — DynAIS per-event cost,
// signature computation, model prediction, policy invocation — plus the
// simulator's own iteration cost and its governor's dither draws.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dynais/dynais.hpp"
#include "metrics/accumulator.hpp"
#include "oracles/reference_dynais.hpp"
#include "policies/min_energy_eufs.hpp"
#include "policies/registry.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "simhw/dither_lanes.hpp"
#include "workload/catalog.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace ear;

void BM_DynaisPush(benchmark::State& state) {
  dynais::Dynais dyn;
  const std::uint32_t pattern[] = {101, 102, 102, 103, 104, 102};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dyn.push(pattern[i % 6]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DynaisPush);

void BM_DynaisPushNonPeriodic(benchmark::State& state) {
  dynais::Dynais dyn;
  std::uint32_t e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dyn.push(e++));  // worst case: full search
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DynaisPushNonPeriodic);

void BM_DynaisReferenceWorstCase(benchmark::State& state) {
  // The pre-optimisation detector on the same all-distinct stream as
  // BM_DynaisPushNonPeriodic: the in-repo "before" of the rewrite.
  dynais::oracle::ReferenceDynais dyn;
  std::uint32_t e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dyn.push(e++));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DynaisReferenceWorstCase);

void BM_DynaisWorstCase(benchmark::State& state) {
  // Lock/break churn: streams that repeatedly almost lock on and then
  // break stress the incremental detector's slowest path (the match-run
  // rebuild after every loop exit) on top of the full-search events.
  std::vector<std::uint32_t> events;
  std::uint32_t junk = 1'000'000;
  for (std::uint32_t p = 1; p <= 24; ++p) {
    for (int round = 0; round < 4; ++round) {
      for (std::uint32_t i = 0; i < 4 * p; ++i) {
        // Periodic with one corruption right after the detector locks.
        events.push_back(i == 3 * p ? junk++ : 100 + i % p);
      }
    }
  }
  dynais::Dynais dyn;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dyn.push(events[i]));
    if (++i == events.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DynaisWorstCase);

void BM_PerfModelEvaluate(benchmark::State& state) {
  const auto cfg = simhw::make_skylake_6148_node();
  const auto demand = workload::make_demand(cfg, workload::SyntheticSpec{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(simhw::evaluate_iteration(
        cfg, demand, common::Freq::ghz(2.4), common::Freq::ghz(2.0)));
  }
}
BENCHMARK(BM_PerfModelEvaluate);

void BM_NodeIteration(benchmark::State& state) {
  const auto cfg = simhw::make_skylake_6148_node();
  simhw::SimNode node(cfg, 1);
  const auto demand = workload::make_demand(cfg, workload::SyntheticSpec{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.execute_iteration(demand));
  }
}
BENCHMARK(BM_NodeIteration);

// The governor's dither draws of one iteration: `lanes` streams (two per
// node) with period counts like paper_campaign's (170-202, mean 186; a
// node's two sockets share one). all_counted:0 is the campaign's mix,
// socket 0 of each node uncounted as in SimNode; all_counted:1 counts
// every lane. dispatched:0 times the scalar loop, dispatched:1 the
// variant dither_lanes picks (the label names it); bench_guard.py holds
// scalar/dispatched of the mix and all-counted/mix of the dispatched
// variant at 26 lanes.
void BM_DitherLanes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const simhw::LaneVariant variant = state.range(1) != 0
                                           ? simhw::dither_variant(n)
                                           : simhw::LaneVariant::kScalar;
  const bool all_counted = state.range(2) != 0;
  common::Rng pick(42);
  std::vector<simhw::DitherLane> lanes(n);
  std::uint64_t draws = 0;
  for (std::size_t j = 0; j < n; ++j) {
    lanes[j] = simhw::DitherLane{
        .state = common::Rng(pick.next_u64()).state(),
        .periods = j % 2 == 1 ? lanes[j - 1].periods : 170 + pick.below(33),
        .threshold = static_cast<std::uint64_t>(0.12 * 0x1p53) + 1,
        .counted = all_counted || j % 2 == 1};
    draws += lanes[j].periods;
  }
  for (auto _ : state) {
    simhw::dither_lanes(lanes, variant);
    benchmark::DoNotOptimize(lanes.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(simhw::lane_variant_name(variant)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    draws));
}
BENCHMARK(BM_DitherLanes)
    ->ArgNames({"lanes", "dispatched", "all_counted"})
    ->ArgsProduct({{2, 26}, {0, 1}, {0}})
    ->Args({26, 1, 1});

// The noise draws of one facility block: `lanes` node streams, each with
// a row of 1-8 pairs (two Rng::normal() draws per iteration).
// dispatched:0 times the scalar loop, dispatched:1 the variant
// noise_lanes picks (the label names it); bench_guard.py holds their
// ratio at 16 lanes.
void BM_NoiseLanes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const simhw::LaneVariant variant = state.range(1) != 0
                                         ? simhw::noise_variant(n)
                                         : simhw::LaneVariant::kScalar;
  common::Rng pick(42);
  std::vector<simhw::NoiseLane> lanes(n);
  std::uint64_t pairs = 0;
  for (simhw::NoiseLane& lane : lanes) {
    lane.state = common::Rng(pick.next_u64()).state();
    lane.pairs = 1 + pick.below(simhw::kNoisePairs);
    pairs += lane.pairs;
  }
  for (auto _ : state) {
    simhw::noise_lanes(lanes, variant);
    benchmark::DoNotOptimize(lanes.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(simhw::lane_variant_name(variant)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    pairs));
}
BENCHMARK(BM_NoiseLanes)
    ->ArgsProduct({{2, 16}, {0, 1}})
    ->ArgNames({"lanes", "dispatched"});

void BM_SignatureComputation(benchmark::State& state) {
  const auto cfg = simhw::make_skylake_6148_node();
  simhw::SimNode node(cfg, 1);
  const auto demand = workload::make_demand(cfg, workload::SyntheticSpec{});
  const auto begin = metrics::Snapshot::take(node);
  for (int i = 0; i < 10; ++i) node.execute_iteration(demand);
  const auto end = metrics::Snapshot::take(node);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::compute_signature(begin, end, 10));
  }
}
BENCHMARK(BM_SignatureComputation);

void BM_ModelPredict(benchmark::State& state) {
  const auto cfg = simhw::make_skylake_6148_node();
  const auto& learned = sim::cached_models(cfg);
  metrics::Signature sig;
  sig.valid = true;
  sig.iter_time_s = 1.0;
  sig.cpi = 0.6;
  sig.tpi = 0.02;
  sig.vpi = 0.4;
  sig.dc_power_w = 320.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(learned.avx512->predict(sig, 1, 7));
  }
}
BENCHMARK(BM_ModelPredict);

void BM_PolicyApply(benchmark::State& state) {
  const auto cfg = simhw::make_skylake_6148_node();
  const auto& learned = sim::cached_models(cfg);
  policies::PolicyContext ctx{.pstates = cfg.pstates,
                              .uncore = cfg.uncore,
                              .model = learned.avx512,
                              .settings = {}};
  auto policy = policies::make_policy("min_energy_eufs", std::move(ctx));
  metrics::Signature sig;
  sig.valid = true;
  sig.iter_time_s = 1.0;
  sig.cpi = 0.6;
  sig.tpi = 0.02;
  sig.gbps = 40.0;
  sig.dc_power_w = 320.0;
  sig.avg_imc_freq = common::Freq::ghz(2.39);
  for (auto _ : state) {
    policies::NodeFreqs out;
    benchmark::DoNotOptimize(policy->apply(sig, out));
    policy->restart();
  }
}
BENCHMARK(BM_PolicyApply);

void BM_CampaignSweep(benchmark::State& state) {
  // A representative table sweep: three catalog workloads under two
  // policy settings, two runs each, reduced exactly like the paper's
  // tables. jobs = 1 keeps the measurement about per-run cost, not
  // thread scheduling; models are pre-learned outside the loop.
  const char* apps[] = {"bt-mz.c.omp", "sp-mz.c.omp", "dgemm"};
  for (const char* app : apps) {
    (void)sim::cached_models(workload::make_app(app).node_config);
  }
  for (auto _ : state) {
    std::vector<sim::CampaignPoint> points;
    for (const char* app : apps) {
      points.push_back(sim::CampaignPoint{
          .label = std::string(app) + "/me-eufs",
          .cfg = sim::ExperimentConfig{.app = workload::make_app(app),
                                       .earl =
                                           sim::settings_me_eufs(0.05, 0.02),
                                       .seed = 7},
          .runs = 2});
      points.push_back(sim::CampaignPoint{
          .label = std::string(app) + "/monitoring",
          .cfg = sim::ExperimentConfig{.app = workload::make_app(app),
                                       .earl = sim::settings_no_policy(),
                                       .seed = 7},
          .runs = 2});
    }
    benchmark::DoNotOptimize(sim::run_campaign(
        std::move(points),
        sim::CampaignOptions{.jobs = 1, .timeline_stride = 8}));
  }
}
BENCHMARK(BM_CampaignSweep)->Unit(benchmark::kMillisecond);

void BM_FullExperimentBtMzC(benchmark::State& state) {
  const auto app = workload::make_app("bt-mz.c.omp");
  (void)sim::cached_models(app.node_config);  // exclude learning
  for (auto _ : state) {
    sim::ExperimentConfig cfg{.app = app,
                              .earl = sim::settings_me_eufs(0.05, 0.02),
                              .seed = 7};
    benchmark::DoNotOptimize(sim::run_experiment(cfg));
  }
}
BENCHMARK(BM_FullExperimentBtMzC)->Unit(benchmark::kMillisecond);

void BM_LearningPhase(benchmark::State& state) {
  const auto cfg = simhw::make_skylake_6148_node();
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::learn_models(cfg));
  }
}
BENCHMARK(BM_LearningPhase)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
