#include "models/learning.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "metrics/accumulator.hpp"
#include "simhw/node.hpp"
#include "workload/synthetic.hpp"

namespace ear::models {

std::vector<simhw::WorkDemand> learning_demands(const simhw::NodeConfig& cfg) {
  const auto suite = workload::learning_suite();
  EAR_CHECK_MSG(!suite.empty(), "empty learning suite");
  std::vector<simhw::WorkDemand> out;
  out.reserve(suite.size());
  for (workload::SyntheticSpec spec : suite) {
    // The suite is sized for the main testbed; smaller nodes (the GPU
    // node's 32 cores) use all the cores they have.
    spec.active_cores = std::min(spec.active_cores, cfg.total_cores());
    out.push_back(workload::make_demand(cfg, spec));
  }
  return out;
}

std::vector<metrics::Signature> learning_signatures(
    const simhw::NodeConfig& cfg, const LearningOptions& opts) {
  const std::vector<simhw::WorkDemand> demands = learning_demands(cfg);
  const std::size_t num_p = cfg.pstates.size();
  const std::size_t samples = demands.size() * num_p;
  // Noise-free nodes: learning wants the clean response surface.
  const auto spec = std::make_shared<const simhw::NodeSpec>(simhw::NodeSpec{
      .config = cfg,
      .noise = simhw::NoiseModel{.time_sigma = 0.0, .power_sigma = 0.0}});
  // Blocks of 16 sample nodes run each iteration's governors and noise in
  // one SimNode::run_governors pass; a block's scratch is small, so the
  // nodes are rebuilt in place, block after block.
  constexpr std::size_t kBlock = 16;
  std::vector<simhw::SimNode> nodes;
  nodes.reserve(kBlock);
  std::array<simhw::WorkDemand, kBlock> block_demands;
  std::array<common::Freq, kBlock> f_imc;
  std::array<simhw::NoisePair, kBlock> noise;
  std::array<metrics::Snapshot, kBlock> begin;
  std::vector<metrics::Signature> sigs(samples);
  for (std::size_t first = 0; first < samples; first += kBlock) {
    const std::size_t n = std::min(kBlock, samples - first);
    nodes.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t w = (first + i) / num_p;
      const std::size_t p = (first + i) % num_p;
      nodes.emplace_back(spec, opts.seed + w * 131 + p);
      nodes.back().set_cpu_pstate(p);
      block_demands[i] = demands[w];
    }
    // One warm-up iteration lets the HW UFS governor settle on its target
    // before the measurement window opens.
    for (std::size_t it = 0; it <= opts.iterations_per_sample; ++it) {
      if (it == 1) {
        for (std::size_t i = 0; i < n; ++i) {
          begin[i] = metrics::Snapshot::take(nodes[i]);
        }
      }
      simhw::SimNode::run_governors(nodes, std::span(block_demands).first(n),
                                    std::span(f_imc).first(n),
                                    std::span(noise).first(n));
      for (std::size_t i = 0; i < n; ++i) {
        (void)nodes[i].finish_iteration(block_demands[i], f_imc[i], noise[i]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      sigs[first + i] = metrics::compute_signature(
          begin[i], metrics::Snapshot::take(nodes[i]),
          opts.iterations_per_sample);
      EAR_CHECK_MSG(sigs[first + i].valid,
                    "learning sample produced an invalid signature");
    }
  }
  return sigs;
}

LearnedModels fit_models(const simhw::NodeConfig& cfg,
                         std::span<const metrics::Signature> sigs) {
  const std::size_t num_p = cfg.pstates.size();
  EAR_CHECK_MSG(!sigs.empty() && sigs.size() % num_p == 0,
                "one signature per workload and P-state");
  const std::size_t workloads = sigs.size() / num_p;

  auto table = std::make_shared<CoefficientTable>(num_p);
  for (std::size_t from = 0; from < num_p; ++from) {
    for (std::size_t to = 0; to < num_p; ++to) {
      if (from == to) continue;  // identity preset by the table
      std::vector<std::vector<double>> rows_p, rows_c;
      std::vector<double> y_p, y_c;
      rows_p.reserve(workloads);
      rows_c.reserve(workloads);
      for (std::size_t w = 0; w < workloads; ++w) {
        const auto& sf = sigs[w * num_p + from];
        const auto& st = sigs[w * num_p + to];
        rows_p.push_back({sf.dc_power_w, sf.tpi, 1.0});
        y_p.push_back(st.dc_power_w);
        rows_c.push_back({sf.cpi, sf.tpi, 1.0});
        y_c.push_back(st.cpi);
      }
      const auto beta_p = common::least_squares(rows_p, y_p);
      const auto beta_c = common::least_squares(rows_c, y_c);
      table->set(from, to,
                 Coefficients{.a = beta_p[0], .b = beta_p[1], .c = beta_p[2],
                              .d = beta_c[0], .e = beta_c[1], .f = beta_c[2],
                              .available = true});
    }
  }

  LearnedModels out;
  out.coefficients = table;
  out.basic = std::make_shared<BasicModel>(cfg.pstates, table);
  out.avx512 = std::make_shared<Avx512Model>(out.basic);
  return out;
}

LearnedModels learn_models(const simhw::NodeConfig& cfg,
                           const LearningOptions& opts) {
  return fit_models(cfg, learning_signatures(cfg, opts));
}

EnergyModelPtr model_by_name(const LearnedModels& learned,
                             const std::string& name) {
  if (name == "basic") return learned.basic;
  if (name == "avx512") return learned.avx512;
  throw common::ConfigError("unknown energy model: " + name);
}

}  // namespace ear::models
