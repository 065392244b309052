// ear_sim — command-line driver for the library.
//
//   ear_sim list
//       Show the workload catalog and available policies.
//   ear_sim run <app> [--policy NAME] [--cpu-th X] [--unc-th X]
//                     [--runs N] [--seed N] [--trace FILE]
//                     [--budget WATTS] [--compare]
//       Run one application; --compare adds the no-policy reference and
//       prints penalties/savings; --budget engages the EARGM cluster
//       power manager; --trace writes the node-0 timeline CSV.
//   ear_sim sweep <app> [--cpu-pstate P]
//       Fixed-uncore sweep (the paper's Fig. 1 protocol); the sweep
//       points fan out over the parallel campaign engine.
//   ear_sim learn [--gpu-node]
//       Run the learning phase and dump the coefficient table.
//   ear_sim facility [--nodes N] [--islands K] [--job-count J]
//                    [--budget W] [--seed S] [--faults PLAN] [--check]
//       Facility tier: heterogeneous islands, a job arrival stream and
//       hierarchical EARGM federation under a facility-wide cap;
//       --check exits non-zero when a chaos invariant is violated.
//
// All run/sweep commands accept --jobs N (0 = all cores); the
// EAR_SIM_JOBS environment variable sets the default. Results are
// bitwise independent of the job count.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/ini.hpp"
#include "common/table.hpp"
#include "faults/fault_plan.hpp"
#include "service/checkpoint.hpp"
#include "service/stamp.hpp"
#include "service/sweep.hpp"
#include "service/trace.hpp"
#include "sim/campaign.hpp"
#include "sim/chaos.hpp"
#include "sim/facility.hpp"
#include "policies/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "models/coeff_io.hpp"
#include "sim/trace.hpp"
#include "workload/catalog.hpp"
#include "workload/spec_file.hpp"

namespace {

using namespace ear;

int usage() {
  std::printf(
      "usage: ear_sim <command> [options]\n"
      "  list                      catalog workloads and policies\n"
      "  run <app> [--policy P] [--cpu-th X] [--unc-th X] [--runs N]\n"
      "            [--seed N] [--trace FILE] [--budget W] [--compare]\n"
      "            [--workload-file FILE] [--jobs N]\n"
      "  sweep <app> [--cpu-pstate P] [--jobs N]  fixed-uncore sweep "
      "(Fig. 1)\n"
      "  learn [--gpu-node] [--save FILE]  learning phase + coefficients\n"
      "  chaos [app] --faults PLAN [--policies a,b] [--runs N] [--seed N]\n"
      "        [--budget W] [--penalty-bound PCT] [--jobs N]\n"
      "        policy matrix under a fault plan + invariant checks\n"
      "        (also spelled: ear_sim --chaos --faults PLAN)\n"
      "  facility [--nodes N] [--islands K] [--job-count J] [--budget W]\n"
      "        [--seed S] [--round S] [--faults PLAN] [--no-backfill]\n"
      "        [--jobs N] [--check]\n"
      "        heterogeneous islands + job queue + EARGM federation\n"
      "        (--budget 0 = uncapped; --check fails on violations)\n"
      "  serve --spec FILE --store DIR [--jobs N] [--fresh]\n"
      "        [--halt-after N] [--slot-delay-ms MS]\n"
      "        crash-safe sweep service: run the spec's grid into a\n"
      "        per-machine artifact store, checkpointing progress; a\n"
      "        killed campaign resumes from the newest valid snapshot\n"
      "        and reduces to bitwise-identical results\n"
      "  trace dump FILE [--limit N]   print a record/replay trace\n"
      "  trace diff A B [--limit N]    first diverging decisions\n"
      "        (exit 1 when the traces differ)\n"
      "  version                       build/provenance stamp\n"
      "--jobs 0 (default) uses EAR_SIM_JOBS or all cores; any job count\n"
      "produces bitwise-identical results.\n");
  return 2;
}

int cmd_list() {
  common::AsciiTable apps("Workload catalog");
  apps.columns({"name", "nodes", "ranks/node", "MPI", "description"},
               {common::Align::kLeft, common::Align::kRight,
                common::Align::kRight, common::Align::kLeft,
                common::Align::kLeft});
  for (const auto& e : workload::catalog()) {
    apps.add_row({e.name, std::to_string(e.nodes),
                  std::to_string(e.ranks_per_node),
                  e.is_mpi ? "yes" : "no", e.description});
  }
  apps.print();
  std::printf("\npolicies:");
  for (const auto& p : policies::policy_names()) std::printf(" %s", p.c_str());
  std::printf("\n");
  return 0;
}

earl::EarlSettings settings_from(const common::ArgParser& args) {
  const std::string policy = args.get("policy", std::string("min_energy_eufs"));
  earl::EarlSettings s = sim::settings_me_eufs(args.get("cpu-th", 0.05),
                                               args.get("unc-th", 0.02));
  s.policy = policy;
  return s;
}

/// Resolve an app by name, from --workload-file if given, else the
/// built-in catalog.
workload::AppModel resolve_app(const common::ArgParser& args,
                               const std::string& name) {
  const std::string file = args.get("workload-file", std::string());
  if (file.empty()) return workload::make_app(name);
  for (const auto& e : workload::load_spec_file(file)) {
    if (e.name == name) return workload::make_app(e);
  }
  throw common::ConfigError("workload '" + name + "' not found in " + file);
}

int cmd_run(const common::ArgParser& args) {
  args.require_known({"policy", "cpu-th", "unc-th", "runs", "seed", "trace",
                      "budget", "compare", "workload-file", "jobs"});
  const std::string app_name = args.positional_or(1, "");
  if (app_name.empty()) return usage();
  const workload::AppModel app = resolve_app(args, app_name);

  sim::ExperimentConfig cfg{
      .app = app,
      .earl = settings_from(args),
      .seed = args.get("seed", std::uint64_t{1})};
  if (args.has("budget")) {
    cfg.eargm = eargm::EargmConfig{
        .cluster_budget = {args.get("budget", 0.0)}};
  }
  const auto runs = args.get("runs", std::uint64_t{3});
  const auto jobs = args.get("jobs", std::uint64_t{0});

  const sim::RunResult one = sim::run_experiment(cfg);
  const sim::AveragedResult avg = sim::run_averaged(cfg, runs, jobs);

  std::printf("%s under %s: time %.1fs (+/- %.1f), power %.1fW, energy "
              "%.0fkJ, CPU %.2f GHz, IMC %.2f GHz\n",
              app_name.c_str(), cfg.earl.policy.c_str(), avg.total_time_s,
              avg.time_stddev_s, avg.avg_dc_power_w,
              avg.total_energy_j / 1000, avg.avg_cpu_ghz, avg.avg_imc_ghz);
  if (cfg.eargm) {
    std::printf("EARGM: %zu throttle events, final limit p%zu, aggregate "
                "%.0fW vs budget %.0fW\n",
                one.eargm_throttles, one.eargm_final_limit,
                avg.avg_dc_power_w * static_cast<double>(app.nodes),
                cfg.eargm->cluster_budget.value);
  }

  if (args.flag("compare")) {
    sim::ExperimentConfig ref_cfg = cfg;
    ref_cfg.earl = sim::settings_no_policy();
    ref_cfg.eargm.reset();
    const auto ref = sim::run_averaged(ref_cfg, runs, jobs);
    const auto c = sim::compare(ref, avg);
    common::AsciiTable table;
    table.columns({"vs no-policy", "time penalty", "power saving",
                   "energy saving", "GB/s penalty", "ratio"});
    sim::add_comparison_row(table, cfg.earl.policy, c);
    table.print();
  }

  const std::string trace = args.get("trace", std::string());
  if (!trace.empty()) {
    std::ofstream out(trace);
    if (!out) throw common::ConfigError("cannot open " + trace);
    sim::write_timeline_csv(one, out);
    std::printf("timeline written to %s (%zu points)\n", trace.c_str(),
                one.timeline.size());
  }
  return 0;
}

int cmd_sweep(const common::ArgParser& args) {
  args.require_known({"cpu-pstate", "jobs", "workload-file"});
  const std::string app_name = args.positional_or(1, "");
  if (app_name.empty()) return usage();
  const workload::AppModel app = resolve_app(args, app_name);
  const auto pstate = static_cast<simhw::Pstate>(args.get(
      "cpu-pstate",
      std::uint64_t{app.node_config.pstates.nominal_pstate()}));
  const auto jobs = args.get("jobs", std::uint64_t{0});

  auto pinned_cfg = [&](std::optional<simhw::UncoreRatioLimit> window) {
    sim::ExperimentConfig cfg{.app = app,
                              .earl = sim::settings_no_policy(),
                              .seed = 3};
    cfg.attach_earl = false;
    cfg.fixed_cpu_pstate = pstate;
    cfg.fixed_uncore_window = window;
    return cfg;
  };

  // Reference plus one point per 100 MHz uncore bin, all in parallel.
  sim::Campaign campaign(sim::CampaignOptions{.jobs = jobs});
  campaign.add("hw-ufs reference", pinned_cfg(std::nullopt), 3);
  const auto bins = app.node_config.uncore.descending();
  for (const common::Freq f : bins) {
    campaign.add(
        f.str(),
        pinned_cfg(simhw::UncoreRatioLimit{.max_freq = f, .min_freq = f}),
        3);
  }
  const auto& results = campaign.run();

  const auto& ref = results[0].avg;
  sim::Series time_pen{.name = "time penalty %"};
  sim::Series power_save{.name = "power save %"};
  sim::Series energy_save{.name = "energy save %"};
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const auto c = sim::compare(ref, results[i + 1].avg);
    const double ghz = bins[i].as_ghz();
    time_pen.x.push_back(ghz);
    time_pen.y.push_back(c.time_penalty_pct);
    power_save.x.push_back(ghz);
    power_save.y.push_back(c.power_saving_pct);
    energy_save.x.push_back(ghz);
    energy_save.y.push_back(c.energy_saving_pct);
  }
  sim::print_series(app_name + " @ CPU " +
                        app.node_config.pstates.freq(pstate).str(),
                    "uncore GHz", {time_pen, power_save, energy_save});
  return 0;
}

int cmd_learn(const common::ArgParser& args) {
  args.require_known({"gpu-node", "save"});
  const auto cfg = args.flag("gpu-node")
                       ? simhw::make_skylake_6142m_gpu_node()
                       : simhw::make_skylake_6148_node();
  const auto& learned = sim::cached_models(cfg);
  std::printf("learned coefficients for %s (%zu pstates), projections "
              "from nominal:\n",
              cfg.name.c_str(), cfg.pstates.size());
  common::AsciiTable table;
  table.columns({"to", "GHz", "A", "B", "C", "D", "E", "F"});
  const simhw::Pstate from = cfg.pstates.nominal_pstate();
  for (simhw::Pstate p = 0; p < cfg.pstates.size(); ++p) {
    const auto& k = learned.coefficients->at(from, p);
    table.add_row({std::to_string(p),
                   common::AsciiTable::ghz(cfg.pstates.freq(p).as_ghz()),
                   common::AsciiTable::num(k.a, 4),
                   common::AsciiTable::num(k.b, 2),
                   common::AsciiTable::num(k.c, 2),
                   common::AsciiTable::num(k.d, 4),
                   common::AsciiTable::num(k.e, 3),
                   common::AsciiTable::num(k.f, 4)});
  }
  table.print();
  const std::string save = args.get("save", std::string());
  if (!save.empty()) {
    models::save_coefficients_file(*learned.coefficients, save);
    std::printf("coefficient table written to %s\n", save.c_str());
  }
  return 0;
}

int cmd_chaos(const common::ArgParser& args) {
  args.require_known({"faults", "policies", "runs", "seed", "budget",
                      "penalty-bound", "jobs", "chaos"});
  const std::string plan_path = args.get("faults", std::string());
  if (plan_path.empty()) {
    std::fprintf(stderr, "ear_sim chaos: --faults PLAN is required\n");
    return usage();
  }
  sim::ChaosOptions opts;
  // Both "ear_sim chaos [app]" and "ear_sim --chaos [app]" are accepted;
  // in the flag form there is no command positional to skip.
  const std::size_t base = args.positional_or(0, "") == "chaos" ? 1 : 0;
  opts.app = args.positional_or(base, opts.app);
  opts.plan = std::make_shared<const faults::FaultPlan>(
      faults::load_fault_plan(plan_path));
  opts.seed = args.get("seed", std::uint64_t{1});
  opts.runs = args.get("runs", std::uint64_t{2});
  opts.jobs = args.get("jobs", std::uint64_t{0});
  opts.time_penalty_bound_pct =
      args.get("penalty-bound", opts.time_penalty_bound_pct);
  if (args.has("budget")) opts.budget_w = args.get("budget", 0.0);
  const std::string policies = args.get("policies", std::string());
  if (!policies.empty()) opts.policies = common::split_list(policies);

  const sim::ChaosReport report = sim::run_chaos(opts);
  sim::print_chaos_report(report);
  std::printf("%s: %zu injected, %zu detected, %zu recovered, "
              "%zu invariant violation(s)\n",
              report.ok() ? "chaos campaign clean" : "CHAOS FAILURE",
              static_cast<std::size_t>(report.totals.injected()),
              static_cast<std::size_t>(report.totals.detected()),
              static_cast<std::size_t>(report.totals.recovered()),
              report.violation_count());
  return report.ok() ? 0 : 1;
}

int cmd_facility(const common::ArgParser& args) {
  args.require_known({"nodes", "islands", "job-count", "seed", "budget",
                      "round", "faults", "no-backfill", "jobs", "check"});
  // Every option value is read and checked before anything is built: a
  // bad one is a usage error (exit 2) before any job is allocated or any
  // thread started.
  const std::uint64_t nodes = args.get("nodes", std::uint64_t{64});
  const std::uint64_t islands = args.get("islands", std::uint64_t{2});
  const std::uint64_t job_count = args.get("job-count", std::uint64_t{24});
  const std::uint64_t seed = args.get("seed", std::uint64_t{1});
  sim::FacilityConfig opts;
  opts.round_s = args.get("round", opts.round_s);
  opts.sim_jobs = args.get("jobs", std::uint64_t{0});
  sim::check_facility_timing(opts);

  sim::FacilityConfig cfg =
      sim::make_facility_config(nodes, islands, job_count, seed);
  if (args.has("budget")) cfg.budget = {args.get("budget", 0.0)};
  cfg.round_s = opts.round_s;
  cfg.sim_jobs = opts.sim_jobs;
  if (args.flag("no-backfill")) cfg.backfill = false;
  const std::string plan_path = args.get("faults", std::string());
  if (!plan_path.empty()) {
    cfg.fault_plan = faults::load_fault_plan(plan_path);
  }

  const sim::FacilityResult result = sim::run_facility(cfg);
  sim::print_facility_report(result);
  std::printf("%s: %zu jobs over %zu nodes in %zu islands, %zu rounds, "
              "%zu invariant violation(s)\n",
              result.violations.empty() ? "facility campaign clean"
                                        : "FACILITY FAILURE",
              result.jobs.size(), nodes, islands, result.rounds,
              result.violations.size());
  if (args.flag("check") && !result.violations.empty()) return 1;
  return 0;
}

int cmd_version(const common::ArgParser& args) {
  args.require_known({"version"});
  const service::BuildStamp& s = service::build_stamp();
  std::printf("ear_sim %s\n", s.line().c_str());
  std::printf("  git:      %s\n", s.git_describe.c_str());
  std::printf("  build:    %s\n", s.build_type.c_str());
  std::printf("  compiler: %s\n", s.compiler.c_str());
  std::printf("  checkpoint format v%u, trace format v%u\n",
              service::kCheckpointFormatVersion,
              service::kTraceFormatVersion);
  return 0;
}

int cmd_serve(const common::ArgParser& args) {
  args.require_known({"spec", "store", "jobs", "fresh", "halt-after",
                      "slot-delay-ms"});
  const std::string spec_path = args.get("spec", std::string());
  const std::string store = args.get("store", std::string());
  if (spec_path.empty() || store.empty()) {
    std::fprintf(stderr,
                 "ear_sim serve: --spec FILE and --store DIR are required\n");
    return usage();
  }
  const std::string spec_text = service::read_file(spec_path);
  std::istringstream in(spec_text);
  const service::SweepSpec spec = service::parse_sweep_spec(in);

  service::SweepOptions opts;
  opts.jobs = args.get("jobs", std::uint64_t{0});
  opts.fresh = args.flag("fresh");
  opts.progress = true;
  opts.halt_after_slots = args.get("halt-after", std::uint64_t{0});
  opts.slot_delay_ms = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      args.get("slot-delay-ms", std::uint64_t{0}), UINT32_MAX));
  opts.spec_text = spec_text;

  const service::SweepOutcome out = service::run_sweep(spec, store, opts);
  if (!out.note.empty()) std::printf("serve: %s\n", out.note.c_str());
  if (out.restored > 0) {
    std::printf("serve: resumed %zu of %zu slots from checkpoint\n",
                out.restored, out.total);
  }
  std::printf("serve: %s '%s': %zu/%zu slots complete, store %s\n",
              out.interrupted ? "interrupted sweep" : "sweep", spec.name.c_str(),
              out.completed, out.total, out.store.c_str());
  if (out.interrupted) {
    std::printf("serve: checkpoint flushed; rerun the same command to "
                "resume\n");
  }
  return 0;
}

int cmd_trace(const common::ArgParser& args) {
  args.require_known({"limit"});
  const std::string sub = args.positional_or(1, "");
  const auto limit = args.get("limit", std::uint64_t{16});
  if (sub == "dump") {
    const std::string path = args.positional_or(2, "");
    if (path.empty()) return usage();
    service::TraceReader reader(service::read_file(path));
    const service::TraceMeta& m = reader.meta();
    std::printf("%s: %s run %zu seed %zu (%s), %zu events\n", path.c_str(),
                m.label.c_str(), static_cast<std::size_t>(m.run),
                static_cast<std::size_t>(m.seed), m.stamp.c_str(),
                static_cast<std::size_t>(reader.event_count()));
    const std::uint64_t n =
        limit > 0 && limit < reader.event_count()
            ? limit
            : reader.event_count();
    for (std::uint64_t i = 0; i < n; ++i) {
      std::printf("  [%zu] %s\n", static_cast<std::size_t>(i),
                  service::describe_event(reader.at(i)).c_str());
    }
    if (n < reader.event_count()) {
      std::printf("  ... %zu more (raise --limit)\n",
                  static_cast<std::size_t>(reader.event_count() - n));
    }
    return 0;
  }
  if (sub == "diff") {
    const std::string path_a = args.positional_or(2, "");
    const std::string path_b = args.positional_or(3, "");
    if (path_a.empty() || path_b.empty()) return usage();
    service::TraceReader a(service::read_file(path_a));
    service::TraceReader b(service::read_file(path_b));
    const service::TraceDiff d = service::diff_traces(a, b, limit);
    if (d.meta_differs) {
      std::printf("metadata differs (%s/%s run %zu vs %s/%s run %zu)\n",
                  a.meta().app.c_str(), a.meta().policy.c_str(),
                  static_cast<std::size_t>(a.meta().run),
                  b.meta().app.c_str(), b.meta().policy.c_str(),
                  static_cast<std::size_t>(b.meta().run));
    }
    if (d.identical()) {
      std::printf("traces identical: %zu events\n",
                  static_cast<std::size_t>(d.a_events));
      return 0;
    }
    for (const service::TraceDiffEntry& e : d.entries) {
      std::printf("event %zu: %s\n", static_cast<std::size_t>(e.index),
                  e.what.c_str());
      if (e.index < d.a_events) {
        std::printf("  a: %s\n",
                    service::describe_event(a.at(e.index)).c_str());
      }
      if (e.index < d.b_events) {
        std::printf("  b: %s\n",
                    service::describe_event(b.at(e.index)).c_str());
      }
    }
    std::printf("traces differ (%zu divergence(s) shown)\n",
                d.entries.size());
    return 1;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // A bad or unknown option (or input file) is a usage error, exit 2,
  // reported as "ear_sim <command>: <message>"; any other failure exits 1.
  std::string cmd;
  try {
    const common::ArgParser args(
        argc, argv,
        {"compare", "gpu-node", "chaos", "check", "no-backfill", "fresh",
         "version"});
    cmd = args.positional_or(0, "");
    if (cmd == "list") {
      args.require_known({});
      return cmd_list();
    }
    if (cmd == "run") return cmd_run(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "learn") return cmd_learn(args);
    if (cmd == "facility") return cmd_facility(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "version" || args.flag("version")) {
      cmd = "version";
      return cmd_version(args);
    }
    if (cmd == "chaos" || args.flag("chaos")) {
      cmd = "chaos";
      return cmd_chaos(args);
    }
    return usage();
  } catch (const common::ConfigError& e) {
    std::fprintf(stderr, "ear_sim%s%s: %s\n", cmd.empty() ? "" : " ",
                 cmd.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ear_sim: %s\n", e.what());
    return 1;
  }
}
