#include "service/sweep.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/ini.hpp"
#include "faults/fault_plan.hpp"
#include "service/checkpoint.hpp"
#include "service/json.hpp"
#include "service/stamp.hpp"
#include "service/trace.hpp"
#include "sim/presets.hpp"
#include "sim/trace.hpp"
#include "workload/catalog.hpp"
#include "workload/spec_file.hpp"

namespace ear::service {

namespace fs = std::filesystem;
using common::ConfigError;

namespace {

void apply(SweepSpec& s, const common::IniEntry& kv) {
  const std::string& key = kv.key;
  if (key == "name") {
    s.name = kv.value;
  } else if (key == "apps") {
    s.apps = common::split_list(kv.value);
  } else if (key == "policies") {
    s.policies = common::split_list(kv.value);
  } else if (key == "faults") {
    s.faults = common::split_list(kv.value);
  } else if (key == "runs") {
    s.runs = kv.integer<std::size_t>();
  } else if (key == "seed") {
    s.seed = kv.integer<std::uint64_t>();
  } else if (key == "cpu_th") {
    s.cpu_th = kv.number();
  } else if (key == "unc_th") {
    s.unc_th = kv.number();
  } else if (key == "checkpoint_every") {
    s.checkpoint_every = kv.integer<std::size_t>();
  } else if (key == "workload_file") {
    s.workload_file = kv.value;
  } else {
    throw kv.error("unknown key '" + key + "'");
  }
}

std::string fault_stem(const std::string& path) {
  return fs::path(path).stem().string();
}

workload::AppModel resolve_app(const SweepSpec& spec,
                               const std::string& name) {
  if (spec.workload_file.empty()) return workload::make_app(name);
  for (const auto& e : workload::load_spec_file(spec.workload_file)) {
    if (e.name == name) return workload::make_app(e);
  }
  throw ConfigError("workload '" + name + "' not found in " +
                    spec.workload_file);
}

/// The campaign grid a spec describes, point indices matching
/// sweep_points() order.
std::vector<sim::CampaignPoint> build_points(const SweepSpec& spec) {
  // Fault plans load once per distinct path and are shared across the
  // points that use them.
  std::map<std::string, std::shared_ptr<const faults::FaultPlan>> plans;
  std::vector<sim::CampaignPoint> out;
  for (const SweepPoint& sp : sweep_points(spec)) {
    sim::ExperimentConfig cfg{.app = resolve_app(spec, sp.app),
                              .seed = spec.seed};
    cfg.earl = sim::settings_me_eufs(spec.cpu_th, spec.unc_th);
    cfg.earl.policy = sp.policy;
    if (!sp.fault_plan.empty()) {
      auto [it, inserted] = plans.try_emplace(sp.fault_plan);
      if (inserted) {
        it->second = std::make_shared<const faults::FaultPlan>(
            faults::load_fault_plan(sp.fault_plan));
      }
      cfg.fault_plan = it->second;
    }
    out.push_back(sim::CampaignPoint{
        .label = sp.label, .cfg = std::move(cfg), .runs = spec.runs});
  }
  return out;
}

void write_text_atomic(const fs::path& path, std::string_view text) {
  write_file_atomic(path.string(), text);
}

std::string stamp_json() {
  const BuildStamp& s = build_stamp();
  JsonWriter j;
  j.begin_object();
  j.key("git_describe");
  j.value_str(s.git_describe);
  j.key("build_type");
  j.value_str(s.build_type);
  j.key("compiler");
  j.value_str(s.compiler);
  j.key("stamp");
  j.value_str(s.line());
  j.end_object();
  return j.str();
}

/// Per-run summary.json: the deterministic scalar outcome of one run.
std::string run_summary_json(const std::string& label, std::size_t run,
                             const sim::RunResult& r) {
  JsonWriter j;
  j.begin_object();
  j.key("label");
  j.value_str(label);
  j.key("run");
  j.value_u64(run);
  j.key("stamp");
  j.value_str(build_stamp().line());
  j.key("total_time_s");
  j.value_double(r.total_time_s);
  j.key("total_energy_j");
  j.value_double(r.total_energy_j);
  j.key("avg_dc_power_w");
  j.value_double(r.avg_dc_power_w);
  j.key("avg_pkg_power_w");
  j.value_double(r.avg_pkg_power_w);
  j.key("avg_cpu_ghz");
  j.value_double(r.avg_cpu_ghz);
  j.key("avg_imc_ghz");
  j.value_double(r.avg_imc_ghz);
  j.key("cpi");
  j.value_double(r.cpi);
  j.key("gbps");
  j.value_double(r.gbps);
  j.key("nodes");
  j.value_u64(r.nodes.size());
  j.key("faults_injected");
  j.value_u64(r.fault_report.injected());
  j.key("faults_detected");
  j.value_u64(r.fault_report.detected());
  j.key("faults_recovered");
  j.value_u64(r.fault_report.recovered());
  j.end_object();
  return j.str();
}

/// Final campaign.json. Only deterministic fields: no wall-clock, no
/// thread-seconds — an interrupted-then-resumed sweep must produce the
/// byte-identical file an uninterrupted one does.
std::string campaign_json(const SweepSpec& spec, std::uint64_t fingerprint,
                          const std::vector<sim::CampaignResult>& results) {
  JsonWriter j;
  j.begin_object();
  j.key("name");
  j.value_str(spec.name);
  j.key("stamp");
  j.value_str(build_stamp().line());
  j.key("fingerprint");
  j.value_u64(fingerprint);
  j.key("runs_per_point");
  j.value_u64(spec.runs);
  j.key("seed");
  j.value_u64(spec.seed);
  j.key("points");
  j.begin_array();
  for (const sim::CampaignResult& r : results) {
    j.begin_object();
    j.key("label");
    j.value_str(r.label);
    j.key("completed_runs");
    j.value_u64(r.completed_runs);
    j.key("errors");
    j.value_u64(r.errors.size());
    j.key("total_time_s");
    j.value_double(r.avg.total_time_s);
    j.key("total_energy_j");
    j.value_double(r.avg.total_energy_j);
    j.key("avg_dc_power_w");
    j.value_double(r.avg.avg_dc_power_w);
    j.key("avg_pkg_power_w");
    j.value_double(r.avg.avg_pkg_power_w);
    j.key("avg_cpu_ghz");
    j.value_double(r.avg.avg_cpu_ghz);
    j.key("avg_imc_ghz");
    j.value_double(r.avg.avg_imc_ghz);
    j.key("cpi");
    j.value_double(r.avg.cpi);
    j.key("gbps");
    j.value_double(r.avg.gbps);
    j.key("time_stddev_s");
    j.value_double(r.avg.time_stddev_s);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  return j.str();
}

/// Write one slot's artifact directory: timeline/nodes CSVs, the scalar
/// summary and the decision trace, each atomically.
void write_run_artifacts(const fs::path& store, const std::string& label,
                         std::size_t point, std::size_t run,
                         std::uint64_t seed, const std::string& app,
                         const std::string& policy,
                         const sim::RunResult& result,
                         TraceRecorder* recorder) {
  const fs::path dir =
      store / label_dir(label) / ("run" + std::to_string(run));
  fs::create_directories(dir);
  {
    std::ostringstream csv;
    sim::write_timeline_csv(result, csv);
    write_text_atomic(dir / "timeline.csv", csv.str());
  }
  {
    std::ostringstream csv;
    sim::write_nodes_csv(result, csv);
    write_text_atomic(dir / "nodes.csv", csv.str());
  }
  write_text_atomic(dir / "summary.json",
                    run_summary_json(label, run, result));
  if (recorder != nullptr) {
    recorder->add_fault_events(result.fault_events);
    const TraceMeta meta{.stamp = build_stamp().line(),
                         .label = label,
                         .app = app,
                         .policy = policy,
                         .point = point,
                         .run = run,
                         .seed = seed};
    write_file_atomic((dir / "trace.bin").string(),
                      recorder->serialize(meta));
  }
}

}  // namespace

std::string label_dir(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    if (c == '/') c = '_';
  }
  return out;
}

SweepSpec parse_sweep_spec(std::istream& in) {
  SweepSpec spec;
  const std::vector<common::IniSection> sections =
      common::read_ini(in, "sweep spec");
  if (sections.empty()) {
    throw ConfigError("sweep spec has no [sweep] section");
  }
  for (const common::IniSection& section : sections) {
    if (section.name != "sweep") {
      throw section.error("unknown section '" + section.name +
                          "' (only [sweep] is defined)");
    }
    for (const common::IniEntry& kv : section.entries) apply(spec, kv);
  }
  if (spec.apps.empty()) {
    throw ConfigError("sweep spec lists no apps");
  }
  if (spec.policies.empty()) {
    throw ConfigError("sweep spec lists no policies");
  }
  if (spec.runs == 0) {
    throw ConfigError("sweep spec: runs must be at least 1");
  }
  if (spec.faults.empty()) spec.faults = {"none"};
  return spec;
}

SweepSpec load_sweep_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open sweep spec " + path);
  return parse_sweep_spec(in);
}

std::vector<SweepPoint> sweep_points(const SweepSpec& spec) {
  std::vector<SweepPoint> out;
  const bool fault_axis =
      spec.faults.size() > 1 ||
      (spec.faults.size() == 1 && spec.faults[0] != "none");
  for (const std::string& app : spec.apps) {
    for (const std::string& policy : spec.policies) {
      for (const std::string& fault : spec.faults) {
        SweepPoint p;
        p.app = app;
        p.policy = policy;
        p.label = app + "/" + policy;
        if (fault != "none") p.fault_plan = fault;
        if (fault_axis) {
          p.label += '/';
          p.label += fault == "none" ? std::string("none") : fault_stem(fault);
        }
        out.push_back(std::move(p));
      }
    }
  }
  return out;
}

SweepOutcome run_sweep(const SweepSpec& spec, const std::string& store_dir,
                       const SweepOptions& opts) {
  SweepOutcome outcome;
  outcome.store = store_dir;
  const fs::path store(store_dir);
  fs::create_directories(store);
  write_text_atomic(store / "stamp.json", stamp_json());
  if (!opts.spec_text.empty()) {
    write_text_atomic(store / "sweep.ini", opts.spec_text);
  }

  const std::vector<SweepPoint> points = sweep_points(spec);
  std::vector<sim::CampaignPoint> grid = build_points(spec);
  outcome.total = grid.size() * spec.runs;

  const std::uint64_t fingerprint = campaign_fingerprint(grid);
  const std::string ckpt_path = (store / "campaign.ckpt").string();
  CheckpointMeta meta;
  meta.stamp = build_stamp().line();
  meta.fingerprint = fingerprint;
  meta.total_slots = outcome.total;
  CheckpointManager manager(ckpt_path, meta, spec.checkpoint_every);

  if (!opts.fresh) {
    CheckpointLoad load =
        try_load_checkpoint(ckpt_path, meta.stamp, fingerprint);
    outcome.note = load.note;
    if (load.loaded) {
      outcome.restored = load.checkpoint.slots.size();
      manager.adopt(std::move(load.checkpoint.slots));
    }
  }

  // The campaign hooks. on_slot_complete runs serialised under the
  // campaign's internal mutex; everything here is keyed by (point, run),
  // so completion order — which depends on the job count — only decides
  // *when* an artifact is written, never what it contains.
  sim::CampaignOptions copts;
  copts.jobs = opts.jobs;
  copts.progress = opts.progress;
  // A crash is a finding, not a reason to lose the rest of the grid.
  copts.capture_errors = true;
  copts.observe = [](std::size_t, std::size_t) {
    return std::make_unique<TraceRecorder>();
  };
  copts.on_slot_complete = [&](std::size_t point, std::size_t run,
                               const sim::RunResult& result,
                               sim::RunObserver* obs) {
    if (opts.slot_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts.slot_delay_ms));
    }
    const SweepPoint& sp = points[point];
    write_run_artifacts(store, sp.label, point, run, spec.seed, sp.app,
                        sp.policy, result,
                        static_cast<TraceRecorder*>(obs));
    manager.record(point, run, result);
  };
  if (opts.halt_after_slots > 0) {
    copts.should_stop = [&manager, halt = opts.halt_after_slots] {
      return manager.recorded() >= halt;
    };
  }

  sim::Campaign campaign(copts);
  for (sim::CampaignPoint& p : grid) campaign.add(std::move(p));
  for (const SlotRecord& s : manager.slots()) {
    campaign.preload(s.point, s.run, s.result);
  }

  const std::vector<sim::CampaignResult>& results = campaign.run();
  manager.flush();
  outcome.interrupted = campaign.interrupted();
  for (const sim::CampaignResult& r : results) {
    outcome.completed += r.completed_runs;
  }
  write_text_atomic(store / "campaign.json",
                    campaign_json(spec, fingerprint, results));
  return outcome;
}

}  // namespace ear::service
