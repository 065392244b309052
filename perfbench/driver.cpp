// perfbench_driver — runs one benchmark workload in this process and
// writes its raw measurements as JSON. run.py builds it, runs it once per
// workload, checks the outputs and reduces the raw samples to metrics;
// see README.md beside this file for the workloads and metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --jobs N
//                    --trace 0|1 --work-dir DIR --out FILE
//   perfbench_driver --self-test
//
// Two workloads, paper_campaign and facility_churn. Each is a closed
// batch (fixed work, run to completion) reached only through the public
// API: sim::Campaign and sim::run_facility. Untraced runs repeat the batch
// until --seconds have passed and record each batch. Traced runs
// (--trace 1) run the batch once untraced, once with the benchmark's
// spans and counters, once at one worker, plus the direct layer drivers;
// paper_campaign's trace adds service::run_sweep and
// analysis::ModelChecker::run, facility_churn's a capped facility.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/model_checker.hpp"
#include "analysis/signature_lattice.hpp"
#include "common/args.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "digest.hpp"
#include "dynais/dynais.hpp"
#include "eard/eard.hpp"
#include "eargm/federation.hpp"
#include "models/learning.hpp"
#include "service/checkpoint.hpp"
#include "service/json.hpp"
#include "service/stamp.hpp"
#include "service/sweep.hpp"
#include "service/trace.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/facility.hpp"
#include "sim/job_queue.hpp"
#include "sim/presets.hpp"
#include "simhw/cluster.hpp"
#include "simhw/hw_ufs.hpp"
#include "simhw/kernel_memo.hpp"
#include "simhw/node.hpp"
#include "simhw/perf_model.hpp"
#include "spans.hpp"
#include "workload/catalog.hpp"
#include "workload/synthetic.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ear;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::seconds_since;
using perfbench::SpanLog;

// Workload sizes. 10k nodes is the low end of ROADMAP's 10k-1M facility
// range: at 30k nodes (about 900 MB) run-to-run throughput on a shared
// 4-CPU host spread 15-35%, at 10k it stays within about 10%.
constexpr std::size_t kFacilityNodes = 10000;
constexpr std::size_t kFacilityIslands = 8;
constexpr double kCapPerNodeW = 200.0;  // binds: idle ~150 W, busy 300+ W
constexpr double kBusyScale = 10.0;     // phase-stable multi-second iterations
constexpr std::size_t kSweepRuns = 3;   // the paper's three runs per point
constexpr const char* kSweepPolicies = "monitoring, min_energy, min_energy_eufs";
// One pass over the 135-slot grid takes 0.1-0.2 s on 4 workers; an
// untraced batch runs it this many times, so a short host stall moves
// one throughput sample little.
constexpr std::size_t kCampaignPasses = 4;

using Layers = std::map<std::string, double>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t jobs = 1;
  bool trace = false;
  fs::path work_dir;
  std::string out;
};

/// One closed batch: its set-up samples, the timed work, the work units
/// done (slots, node-rounds or transitions), the operations attempted and
/// failed, and the output digest.
struct Batch {
  std::vector<double> setup_s;
  double work_s = 0.0;
  double units = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::string digest;
  /// Batches with the same key ran the same inputs, so their digests must
  /// agree; batches with different keys are never compared.
  std::string key;
  /// Process peak RSS after this batch; recorded for the first batch
  /// only, the one that runs in a fresh process as a user's run does
  /// (later batches inherit heap fragmentation from earlier ones).
  std::uint64_t peak_rss_kb = 0;
};

struct Outcome {
  std::vector<Batch> batches;
  Layers layers;
  std::vector<std::string> notes;  // failure explanations
};

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Field of /proc/self/status in kB (VmHWM = peak RSS, VmRSS = current).
std::uint64_t proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

std::string digest_bytes(std::string_view bytes) {
  perfbench::Fnv1a h;
  h.bytes(bytes);
  return perfbench::hex64(h.value());
}

double per_call_ns(double total_ns, double calls) {
  return calls > 0.0 ? total_ns / calls : 0.0;
}

/// Runs `batch` for `seconds`: at least once, and never starting a batch
/// that the slowest one so far says would end past the deadline. A batch
/// that throws counts every operation it attempted as failed. Freed heap
/// goes back to the OS between batches, so each batch faults its memory
/// in as a fresh process would.
template <class F>
std::vector<Batch> repeat_for(double seconds, std::uint64_t ops_per_batch,
                              std::vector<std::string>& notes, F&& batch) {
  std::vector<Batch> out;
  const auto t0 = Clock::now();
  double slowest = 0.0;
  do {
    const auto tb = Clock::now();
    try {
      out.push_back(batch(out.size()));
      if (out.size() == 1) out.back().peak_rss_kb = proc_status_kb("VmHWM");
    } catch (const std::exception& e) {
      notes.push_back(std::string("batch threw: ") + e.what());
      out.push_back(Batch{.ops = ops_per_batch,
                          .errors = ops_per_batch,
                          .digest = "error"});
    }
    malloc_trim(0);
    slowest = std::max(slowest, seconds_since(tb));
  } while (seconds_since(t0) + slowest <= seconds);
  return out;
}

// ----------------------------------------------------------- paper grid

/// The generated spec: the full catalog under the paper's three
/// configurations, three runs each, seeded from the workload seed.
std::string sweep_spec_text(std::uint64_t seed) {
  std::string apps;
  for (const workload::CatalogEntry& e : workload::catalog()) {
    apps += (apps.empty() ? "" : ", ") + e.name;
  }
  return "[sweep]\nname = paper_campaign\napps = " + apps +
         "\npolicies = " + kSweepPolicies +
         "\nruns = " + std::to_string(kSweepRuns) +
         "\nseed = " + std::to_string(seed) + "\n";
}

service::SweepSpec parse_spec(std::uint64_t seed) {
  std::istringstream in(sweep_spec_text(seed));
  return service::parse_sweep_spec(in);
}

/// Distinct node types the spec's apps run on, in first-use order.
std::vector<simhw::NodeConfig> sweep_node_types(
    const service::SweepSpec& spec) {
  std::vector<simhw::NodeConfig> out;
  for (const std::string& app : spec.apps) {
    simhw::NodeConfig cfg =
        workload::node_config_for(workload::find_entry(app).node_kind);
    const bool seen = std::any_of(out.begin(), out.end(), [&](const auto& c) {
      return c.name == cfg.name;
    });
    if (!seen) out.push_back(std::move(cfg));
  }
  return out;
}

std::uint64_t sweep_slots(const service::SweepSpec& spec) {
  return spec.apps.size() * spec.policies.size() * spec.runs;
}

/// The grid service::run_sweep builds from the spec.
std::vector<sim::CampaignPoint> sweep_grid(const service::SweepSpec& spec) {
  std::vector<sim::CampaignPoint> grid;
  for (const service::SweepPoint& sp : service::sweep_points(spec)) {
    sim::ExperimentConfig cfg{.app = workload::make_app(sp.app),
                              .seed = spec.seed};
    cfg.earl = sim::settings_me_eufs(spec.cpu_th, spec.unc_th);
    cfg.earl.policy = sp.policy;
    grid.push_back(sim::CampaignPoint{
        .label = sp.label, .cfg = std::move(cfg), .runs = spec.runs});
  }
  return grid;
}

/// Failed slots of a finished grid: runs that threw or never completed.
/// The paper's headline — explicit UFS uses less energy than no policy,
/// summed over the catalog — must also hold, or every slot fails.
std::uint64_t paper_errors(const std::vector<sim::CampaignResult>& results,
                           std::size_t runs, std::vector<std::string>& notes) {
  std::uint64_t failed = 0, slots = 0;
  std::map<std::string, double> energy;  // by policy
  for (const sim::CampaignResult& r : results) {
    slots += runs;
    failed += runs - std::min(runs, r.completed_runs);
    for (const std::string& e : r.errors) notes.push_back(r.label + ": " + e);
    const double j = r.avg.total_energy_j;
    if (!(std::isfinite(j) && j > 0.0)) {
      notes.push_back(r.label + ": energy " + std::to_string(j));
      failed += runs;
    }
    energy[r.label.substr(r.label.find('/') + 1)] += j;
  }
  if (!(energy["min_energy_eufs"] < energy["monitoring"])) {
    notes.push_back("min_energy_eufs used no less energy than monitoring");
    failed = slots;
  }
  return std::min(failed, slots);
}

/// FNV-1a over every point's label and averaged result.
std::string digest_results(const std::vector<sim::CampaignResult>& results) {
  perfbench::Fnv1a h;
  for (const sim::CampaignResult& r : results) {
    h.str(r.label);
    h.u64(r.completed_runs);
    h.u64(r.errors.size());
    for (const double v : {r.avg.total_time_s, r.avg.total_energy_j,
                           r.avg.avg_dc_power_w, r.avg.avg_pkg_power_w,
                           r.avg.avg_cpu_ghz, r.avg.avg_imc_ghz, r.avg.cpi,
                           r.avg.gbps, r.avg.time_stddev_s}) {
      h.f64(v);
    }
  }
  return perfbench::hex64(h.value());
}

/// One paper_campaign batch: `passes` runs of the sweep grid through one
/// sim::Campaign, with run errors captured as run_sweep captures them.
/// Every pass must give the same digest. Set-up is spec parsing, building
/// the grid and the model learning sim::cached_models does once per node
/// type; batch 0 warms the cache itself, later batches repeat the same
/// learn_models call so every set-up sample covers the same work.
Batch campaign_batch(const Options& o, std::size_t index, std::size_t passes,
                     sim::CampaignOptions copts,
                     std::vector<std::string>& notes) {
  Batch b;
  const auto t0 = Clock::now();
  const service::SweepSpec spec = parse_spec(o.seed);
  copts.capture_errors = true;
  sim::Campaign campaign(std::move(copts));
  for (sim::CampaignPoint& p : sweep_grid(spec)) campaign.add(std::move(p));
  for (const simhw::NodeConfig& cfg : sweep_node_types(spec)) {
    if (index == 0) {
      (void)sim::cached_models(cfg);
    } else {
      (void)models::learn_models(cfg);
    }
  }
  b.setup_s.push_back(seconds_since(t0));

  b.ops = sweep_slots(spec) * passes;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const auto t1 = Clock::now();
    const std::vector<sim::CampaignResult>& results = campaign.run();
    b.work_s += seconds_since(t1);
    for (const sim::CampaignResult& r : results) {
      b.units += static_cast<double>(r.completed_runs);
    }
    b.errors += paper_errors(results, spec.runs, notes);
    const std::string digest = digest_results(results);
    if (pass == 0) {
      b.digest = digest;
    } else if (digest != b.digest) {
      notes.push_back("campaign pass " + std::to_string(pass) +
                      " gave another result");
      b.errors = b.ops;
    }
  }
  b.errors = std::min(b.errors, b.ops);
  return b;
}

struct SweepRun {
  double wall_s = 0.0;
  std::uint64_t slots = 0;
  std::uint64_t incomplete = 0;
  std::string digest;  // of campaign.json's bytes
};

/// service::run_sweep of the same grid into a fresh store.
SweepRun sweep_into(const Options& o, const fs::path& store,
                    std::size_t jobs) {
  fs::remove_all(store);
  service::SweepOptions so;
  so.jobs = jobs;
  so.fresh = true;
  const service::SweepSpec spec = parse_spec(o.seed);
  const auto t0 = Clock::now();
  const service::SweepOutcome out =
      service::run_sweep(spec, store.string(), so);
  SweepRun r;
  r.wall_s = seconds_since(t0);
  r.slots = out.total;
  r.incomplete = out.total - std::min(out.total, out.completed);
  r.digest =
      digest_bytes(service::read_file((store / "campaign.json").string()));
  return r;
}

/// Records when a slot started and node 0's operating point per
/// iteration; the points feed the kernel, memo and governor replays.
class SlotObserver final : public sim::RunObserver {
 public:
  struct Point {
    std::size_t phase;
    common::Freq cpu;
    common::Freq imc;
  };

  std::int64_t start_ns = perfbench::now_ns();
  std::vector<Point> points;

  void phase_begin(std::size_t, std::size_t) override {}
  void iteration(const IterationSample& s) override {
    points.push_back({s.phase, s.cpu_freq, s.imc_freq});
  }
};

struct SlotRecord {
  std::size_t point = 0;
  double seconds = 0.0;
  std::vector<SlotObserver::Point> points;
};

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Highest percentile of {99.9, 99, 90, 50} with at least ten samples
/// beyond it (0 when there are fewer than 20 samples).
double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0.0;
}

void dynais_driver(const service::SweepSpec& spec, Layers& L) {
  ScopedSpan span("layer.dynais");
  double events = 0.0;
  std::int64_t ns = 0;
  for (const std::string& name : spec.apps) {
    const workload::AppModel app = workload::make_app(name);
    if (!app.is_mpi) continue;  // time-guided apps never reach DynAIS
    dynais::Dynais detector;
    std::size_t loops = 0;
    const std::int64_t t0 = perfbench::now_ns();
    for (const workload::Phase& ph : app.phases) {
      for (std::size_t it = 0; it < ph.iterations; ++it) {
        for (const std::uint32_t e : ph.mpi_pattern) {
          loops += detector.push(e).status != dynais::Status::kNoLoop;
        }
      }
    }
    ns += perfbench::now_ns() - t0;
    for (const workload::Phase& ph : app.phases) {
      events += static_cast<double>(ph.iterations * ph.mpi_pattern.size());
    }
    if (loops == 0) throw std::runtime_error("DynAIS found no loop in " + name);
  }
  L["dynais.events"] = events;
  L["dynais.push_ns"] = per_call_ns(static_cast<double>(ns), events);
}

/// Replays every recorded operating point through the iteration kernel,
/// a per-slot IterationMemo and one UFS governor per slot.
void simhw_replays(const std::vector<sim::CampaignPoint>& grid,
                   const std::vector<SlotRecord>& slots, Layers& L) {
  ScopedSpan span("layer.simhw_replay");
  double evals = 0.0, kernel_ns = 0.0, gov_ns = 0.0, sink = 0.0;
  std::size_t hits = 0, misses = 0;
  for (const SlotRecord& s : slots) {
    const workload::AppModel& app = grid[s.point].cfg.app;
    const simhw::NodeConfig& cfg = app.node_config;
    simhw::IterationMemo memo(cfg);
    const simhw::SimNode probe(cfg, 1);
    simhw::HwUfsGovernor gov(cfg, {}, common::mix_seed(s.point, 0x60F));
    const simhw::UncoreRatioLimit limit = probe.uncore_limit();
    double bw = 0.5;
    for (const SlotObserver::Point& p : s.points) {
      const simhw::WorkDemand demand =
          app.node_demand(app.phases.at(p.phase), 0);
      std::int64_t t0 = perfbench::now_ns();
      const simhw::PerfResult r =
          simhw::evaluate_iteration(cfg, demand, p.cpu, p.imc);
      kernel_ns += static_cast<double>(perfbench::now_ns() - t0);
      sink += memo.evaluate(cfg, demand, p.cpu, p.imc).iter_time.value;

      const common::Freq cap = cfg.pstates.avx512_effective(p.cpu);
      const simhw::UfsInputs in{
          .requested_core_freq = p.cpu,
          .effective_core_freq = common::Freq::khz(static_cast<std::uint64_t>(
              (1.0 - demand.vpi) * static_cast<double>(p.cpu.as_khz()) +
              demand.vpi * static_cast<double>(cap.as_khz()))),
          .bw_utilisation = bw,
          .relaxed_fraction = demand.relaxed_wait_fraction,
          .active_cores = demand.active_cores,
      };
      const auto periods = static_cast<std::size_t>(
          std::clamp(r.iter_time.value / 0.010, 1.0, 400.0));
      t0 = perfbench::now_ns();
      sink += gov.evaluate_periods(in, limit, periods);
      gov_ns += static_cast<double>(perfbench::now_ns() - t0);
      bw = r.bw_utilisation;
      evals += 1.0;
    }
    hits += memo.hits();
    misses += memo.misses();
  }
  if (!(sink > 0.0)) throw std::runtime_error("simhw replay produced nothing");
  L["simhw.kernel_ns"] = per_call_ns(kernel_ns, evals);
  L["simhw.governor_ns"] = per_call_ns(gov_ns, evals);
  L["simhw.memo_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
}

/// Store-level drivers over a finished store: artifact writes, trace
/// density and the checkpoint codec.
void store_drivers(const fs::path& store, const fs::path& scratch,
                   Layers& L) {
  ScopedSpan span("layer.service_store");
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  double write_s = 0.0, slots = 0.0, trace_bytes = 0.0, iterations = 0.0;
  for (const auto& point_dir : fs::directory_iterator(store)) {
    if (!point_dir.is_directory()) continue;
    for (const auto& run_dir : fs::directory_iterator(point_dir.path())) {
      std::vector<std::pair<std::string, std::string>> files;
      for (const auto& f : fs::directory_iterator(run_dir.path())) {
        files.emplace_back(f.path().filename().string(),
                           service::read_file(f.path().string()));
      }
      const auto t0 = Clock::now();
      for (const auto& [name, bytes] : files) {
        service::write_file_atomic((scratch / name).string(), bytes);
      }
      write_s += seconds_since(t0);
      slots += 1.0;

      const fs::path trace = run_dir.path() / "trace.bin";
      trace_bytes += static_cast<double>(fs::file_size(trace));
      service::TraceReader reader(service::read_file(trace.string()));
      for (std::uint64_t i = 0; i < reader.event_count(); ++i) {
        iterations +=
            reader.at(i).kind == service::TraceEventKind::kIteration ? 1 : 0;
      }
    }
  }
  L["service.write_s_per_slot"] = slots > 0.0 ? write_s / slots : 0.0;
  L["service.trace_bytes_per_iter"] =
      iterations > 0.0 ? trace_bytes / iterations : 0.0;

  const std::string ckpt_path = (store / "campaign.ckpt").string();
  const service::Checkpoint ckpt =
      service::decode_checkpoint(service::read_file(ckpt_path));
  std::vector<double> enc, load;
  for (int i = 0; i < 5; ++i) {
    auto t0 = Clock::now();
    const std::string bytes = service::encode_checkpoint(ckpt);
    enc.push_back(seconds_since(t0));
    t0 = Clock::now();
    const service::CheckpointLoad l = service::try_load_checkpoint(
        ckpt_path, ckpt.meta.stamp, ckpt.meta.fingerprint);
    load.push_back(seconds_since(t0));
    if (!l.loaded || bytes.empty()) {
      throw std::runtime_error("checkpoint reload failed: " + l.note);
    }
  }
  L["service.ckpt_encode_s"] = percentile(enc, 50.0);
  L["service.ckpt_load_s"] = percentile(load, 50.0);
  fs::remove_all(scratch);
}

/// Model-checker layers over the seed's environments (defined in the
/// model-check section below).
void model_layers(const Options& o, Outcome& out);

Outcome run_paper_workload(const Options& o) {
  Outcome out;
  sim::CampaignOptions copts;
  copts.jobs = o.jobs;
  if (!o.trace) {
    const std::uint64_t ops = sweep_slots(parse_spec(o.seed)) * kCampaignPasses;
    out.batches = repeat_for(o.seconds, ops, out.notes, [&](std::size_t i) {
      return campaign_batch(o, i, kCampaignPasses, copts, out.notes);
    });
    return out;
  }

  // The traced run times single passes, so that the plain pass compares
  // with one run_sweep of the same grid.

  Layers& L = out.layers;
  const service::SweepSpec spec = parse_spec(o.seed);
  {
    // First cached_models call per node type, in a process that has not
    // learned anything yet.
    ScopedSpan span("layer.models");
    double learn = 0.0;
    const auto types = sweep_node_types(spec);
    for (const simhw::NodeConfig& cfg : types) {
      const auto t0 = Clock::now();
      (void)sim::cached_models(cfg);
      learn += seconds_since(t0);
    }
    L["models.learn_s"] = learn / static_cast<double>(types.size());
  }
  const Batch plain = campaign_batch(o, 0, 1, copts, out.notes);
  out.batches.push_back(plain);

  std::vector<SlotRecord> slots;
  Batch hooked;
  {
    ScopedSpan span("workload.campaign");
    SpanLog::instance().set_thread_root(span.id());
    sim::CampaignOptions hooks = copts;
    hooks.observe = [](std::size_t, std::size_t) {
      return std::make_unique<SlotObserver>();
    };
    // Serialised by the campaign's own mutex.
    hooks.on_slot_complete = [&](std::size_t point, std::size_t,
                                 const sim::RunResult&,
                                 sim::RunObserver* obs) {
      auto* so = static_cast<SlotObserver*>(obs);
      const std::int64_t end = perfbench::now_ns();
      SpanLog& log = SpanLog::instance();
      log.record({.id = log.next_id(),
                  .parent = span.id(),
                  .name = "campaign.slot",
                  .start_ns = so->start_ns,
                  .end_ns = end,
                  .thread = perfbench::thread_index()});
      slots.push_back({point, static_cast<double>(end - so->start_ns) / 1e9,
                       std::move(so->points)});
    };
    // Observers read, never steer: the digest must not move.
    hooked = campaign_batch(o, 0, 1, std::move(hooks), out.notes);
    SpanLog::instance().set_thread_root(0);
  }
  out.batches.push_back(hooked);
  std::vector<double> slot_s;
  double busy = 0.0;
  for (const SlotRecord& s : slots) {
    slot_s.push_back(s.seconds);
    busy += s.seconds;
  }
  const double tail = tail_percentile(slot_s.size());
  L["campaign.slot_samples"] = static_cast<double>(slot_s.size());
  L["campaign.slot_s_p50"] = percentile(slot_s, 50.0);
  L["campaign.slot_tail_pct"] = tail;
  L["campaign.slot_s_tail"] = tail > 0.0 ? percentile(slot_s, tail) : 0.0;
  L["campaign.busy_frac"] =
      busy / (static_cast<double>(o.jobs) * hooked.work_s);
  L["trace.overhead_s"] = hooked.work_s - plain.work_s;
  L["trace.overhead_frac"] = (hooked.work_s - plain.work_s) / plain.work_s;

  if (o.jobs > 1) {
    ScopedSpan span("workload.campaign_1w");
    sim::CampaignOptions one = copts;
    one.jobs = 1;
    out.batches.push_back(campaign_batch(o, 0, 1, one, out.notes));
  }
  dynais_driver(spec, L);
  simhw_replays(sweep_grid(spec), slots, L);

  // The service layer: the same grid through run_sweep into a store, at
  // both worker counts; campaign.json must come out byte-identical.
  const fs::path store = o.work_dir / "store";
  SweepRun sweep;
  {
    ScopedSpan span("workload.run_sweep");
    sweep = sweep_into(o, store, o.jobs);
  }
  L["service.overhead_frac"] = 1.0 - plain.work_s / sweep.wall_s;
  L["service.store_mb"] = static_cast<double>(tree_bytes(store)) / 1e6;
  store_drivers(store, o.work_dir / "write_probe", L);
  SweepRun sweep_one = sweep;
  if (o.jobs > 1) {
    ScopedSpan span("workload.run_sweep_1w");
    sweep_one = sweep_into(o, o.work_dir / "store_1w", 1);
  }
  // Both sweeps are checked against each other here, so the batch they
  // add carries the campaign's digest unless they disagree.
  Batch service_check{.ops = sweep.slots + sweep_one.slots,
                      .errors = sweep.incomplete + sweep_one.incomplete,
                      .digest = plain.digest};
  if (sweep.digest != sweep_one.digest) {
    service_check.errors = service_check.ops;
    out.notes.push_back("campaign.json differs at 1 worker");
  }
  out.batches.push_back(service_check);
  fs::remove_all(store);
  fs::remove_all(o.work_dir / "store_1w");

  // The checker of the same Fig. 2 policy: its layers are measured here
  // because the model checker is not timed end to end.
  model_layers(o, out);
  return out;
}

// ------------------------------------------------------------- facility

sim::FacilityConfig facility_config(bool capped, std::uint64_t seed,
                                    std::size_t jobs) {
  sim::FacilityConfig cfg = sim::make_facility_config(
      kFacilityNodes, kFacilityIslands, kFacilityNodes / 2, seed);
  cfg.core = sim::SimCore::kEvent;
  cfg.sim_jobs = jobs;
  if (capped) {
    cfg.budget = {static_cast<double>(kFacilityNodes) * kCapPerNodeW};
    for (sim::FacilityJob& job : cfg.jobs) job.work.iter_seconds *= kBusyScale;
  } else {
    cfg.budget = {0.0};
  }
  return cfg;
}

/// Simulated-result checks beyond the engine's own chaos invariants:
/// every submitted job ran to completion.
std::size_t facility_errors(const sim::FacilityConfig& cfg,
                            const sim::FacilityResult& r,
                            std::vector<std::string>& notes) {
  std::size_t errors = r.violations.size();
  for (const std::string& v : r.violations) notes.push_back("violation: " + v);
  if (r.jobs.size() != cfg.jobs.size()) {
    notes.push_back("job count changed");
    ++errors;
  }
  for (const auto& j : r.jobs) {
    if (!(j.end_s > j.start_s && j.start_s >= j.submit_s && j.energy_j > 0)) {
      notes.push_back("job did not complete: " + j.name);
      ++errors;
      break;
    }
  }
  return errors;
}

struct FacilityRun {
  Batch batch;
  sim::FacilityResult result;
  double wall_s = 0.0;  // config + run_facility
};

FacilityRun facility_batch(bool capped, std::uint64_t seed, std::size_t jobs,
                           std::vector<std::string>& notes) {
  FacilityRun fr;
  const auto t0 = Clock::now();
  const sim::FacilityConfig cfg = facility_config(capped, seed, jobs);
  const double config_s = seconds_since(t0);
  fr.result = sim::run_facility(cfg);
  fr.wall_s = seconds_since(t0);
  Batch& b = fr.batch;
  b.setup_s.push_back(config_s + fr.result.walls.build_s);
  b.work_s = fr.result.walls.core_s;
  b.units = static_cast<double>(kFacilityNodes) *
            static_cast<double>(fr.result.rounds);
  b.ops = 1;
  b.errors = facility_errors(cfg, fr.result, notes) > 0 ? 1 : 0;
  b.digest = perfbench::hex64(perfbench::digest_facility(fr.result));
  return fr;
}

/// Every island's simhw::Cluster of `cfg`, built with the seeds
/// run_facility uses; `on_built(island)` runs after each.
template <class F>
std::vector<std::unique_ptr<simhw::Cluster>> build_clusters(
    const sim::FacilityConfig& cfg, F&& on_built) {
  std::vector<std::unique_ptr<simhw::Cluster>> clusters;
  for (std::size_t i = 0; i < cfg.islands.size(); ++i) {
    const sim::FacilityIsland& is = cfg.islands[i];
    clusters.push_back(std::make_unique<simhw::Cluster>(
        is.node_config, is.nodes, common::mix_seed(cfg.seed, i), cfg.noise,
        cfg.ufs));
    on_built(i);
  }
  return clusters;
}

/// RSS growth per constructed node, per node type. Runs first in the
/// process, so the growth is fresh pages, not reused heap.
void node_bytes_driver(const sim::FacilityConfig& cfg, Layers& L) {
  ScopedSpan span("layer.simhw_nodes");
  std::map<std::string, std::pair<double, double>> per_type;  // bytes, nodes
  double rss = static_cast<double>(proc_status_kb("VmRSS"));
  (void)build_clusters(cfg, [&](std::size_t i) {
    const double now = static_cast<double>(proc_status_kb("VmRSS"));
    auto& acc = per_type[cfg.islands[i].node_config.name];
    acc.first += (now - rss) * 1024.0;
    acc.second += static_cast<double>(cfg.islands[i].nodes);
    rss = now;
  });
  double all_bytes = 0.0, all_nodes = 0.0;
  for (const auto& [name, acc] : per_type) {
    all_bytes += acc.first;
    all_nodes += acc.second;
    L["simhw.node_bytes." + name] = acc.first / acc.second;
  }
  L["simhw.node_bytes"] = all_bytes / all_nodes;
}

/// FederatedEargm::update over every node of the capped facility, once
/// per round the measured capped run took. Each round's readings are
/// drawn around a facility level between that run's mean and peak
/// per-node power, against its budget, so the federation sees the load
/// the run put on it. eargm.redistributions is the run's own count.
void eargm_driver(const sim::FacilityConfig& cfg, const sim::FacilityResult& r,
                  Layers& L) {
  const auto clusters = build_clusters(cfg, [](std::size_t) {});
  ScopedSpan span("layer.eargm");
  std::vector<eard::NodeDaemon> daemons;
  std::vector<std::vector<eard::NodeDaemon*>> groups;
  std::size_t total = 0;
  for (const auto& c : clusters) total += c->size();
  daemons.reserve(total);
  for (const auto& c : clusters) {
    std::vector<eard::NodeDaemon*> group;
    for (std::size_t n = 0; n < c->size(); ++n) {
      daemons.emplace_back(c->node(n));
      group.push_back(&daemons.back());
    }
    groups.push_back(std::move(group));
  }
  eargm::FederatedEargm fed(
      eargm::FederationConfig{.facility_budget = {r.budget_w},
                              .island = cfg.island_eargm,
                              .floor_share = cfg.floor_share},
      std::move(groups));
  const double nodes = static_cast<double>(total);
  const double mean_w = r.facility_energy_j / r.makespan_s / nodes;
  const double peak_w = r.peak_power_w / nodes;
  common::Rng rng(common::mix_seed(cfg.seed, 0xEA6));
  std::vector<double> power(total);
  std::int64_t ns = 0;
  for (std::size_t round = 0; round < r.rounds; ++round) {
    const double level = rng.uniform(mean_w, peak_w);
    for (double& w : power) w = level * rng.uniform(0.75, 1.25);
    const std::int64_t t0 = perfbench::now_ns();
    fed.update(power);
    ns += perfbench::now_ns() - t0;
  }
  L["eargm.update_ns"] =
      per_call_ns(static_cast<double>(ns), static_cast<double>(r.rounds));
  L["eargm.redistributions"] = static_cast<double>(r.redistributions);
}

/// JobQueue::admit over the workload's arrival stream, releasing each
/// job after the run time it had in the measured facility run.
void job_queue_driver(const sim::FacilityConfig& cfg,
                      const sim::FacilityResult& r, Layers& L) {
  ScopedSpan span("layer.job_queue");
  std::vector<std::size_t> sizes;
  for (const auto& is : cfg.islands) sizes.push_back(is.nodes);
  sim::JobQueue queue(cfg.jobs, sizes, cfg.backfill);
  struct Running {
    double end_s;
    std::size_t island;
    std::vector<std::size_t> nodes;
  };
  std::vector<Running> running;
  std::int64_t ns = 0;
  double calls = 0.0, admits = 0.0;
  for (std::size_t k = 0; !queue.all_started() && k < 100 * r.rounds + 100;
       ++k) {
    const double now = static_cast<double>(k) * cfg.round_s;
    for (auto it = running.begin(); it != running.end();) {
      if (it->end_s <= now) {
        queue.release(it->island, it->nodes);
        it = running.erase(it);
      } else {
        ++it;
      }
    }
    const std::int64_t t0 = perfbench::now_ns();
    std::vector<sim::JobStart> starts = queue.admit(now);
    ns += perfbench::now_ns() - t0;
    calls += 1.0;
    for (sim::JobStart& s : starts) {
      const auto& done = r.jobs[s.job];
      running.push_back({now + std::max(cfg.round_s, done.end_s - done.start_s),
                         s.island, std::move(s.local_nodes)});
      admits += 1.0;
    }
  }
  if (!queue.all_started()) throw std::runtime_error("job replay wedged");
  L["job_queue.admit_ns"] = per_call_ns(static_cast<double>(ns), calls);
  L["job_queue.admits"] = admits;
}

/// SimNode::execute_stretch at the demands of the first jobs, one round
/// boundary at a time, as the event core advances a node.
void stretch_driver(const sim::FacilityConfig& cfg,
                    const sim::FacilityResult& r, Layers& L) {
  ScopedSpan span("layer.simhw_stretch");
  constexpr std::size_t kJobs = 64;
  std::int64_t ns = 0;
  double calls = 0.0;
  for (std::size_t j = 0; j < std::min(kJobs, cfg.jobs.size()); ++j) {
    const sim::FacilityJob& job = cfg.jobs[j];
    const simhw::NodeConfig& nc = cfg.islands.at(r.jobs[j].island).node_config;
    simhw::SimNode node(nc, common::mix_seed(cfg.seed, j), cfg.noise, cfg.ufs);
    const simhw::WorkDemand demand = workload::make_demand(nc, job.work);
    std::size_t left = job.work.iterations;
    while (left > 0) {
      const double stop = node.clock().value + cfg.round_s;
      const std::int64_t t0 = perfbench::now_ns();
      const simhw::StretchSummary s = node.execute_stretch(demand, left, stop);
      ns += perfbench::now_ns() - t0;
      calls += 1.0;
      if (s.iterations == 0) throw std::runtime_error("stretch made no progress");
      left -= std::min(left, s.iterations);
    }
  }
  L["simhw.stretch_ns"] = per_call_ns(static_cast<double>(ns), calls);
}

/// The same facility at one worker, as a bitwise check of `ref`: a
/// differing digest fails the batch. The batch shares `ref`'s key.
FacilityRun one_worker_check(bool capped, const Options& o,
                             const FacilityRun& ref, Outcome& out) {
  FacilityRun one = facility_batch(capped, o.seed, 1, out.notes);
  one.batch.key = ref.batch.key;
  if (one.batch.digest != ref.batch.digest) {
    one.batch.errors = 1;
    out.notes.push_back(std::string(capped ? "capped " : "") +
                        "facility result differs at 1 worker");
  }
  out.batches.push_back(one.batch);
  return one;
}

Outcome run_facility_workload(const Options& o) {
  Outcome out;
  if (!o.trace) {
    out.batches = repeat_for(o.seconds, 1, out.notes, [&](std::size_t) {
      return facility_batch(false, o.seed, o.jobs, out.notes).batch;
    });
    return out;
  }

  Layers& L = out.layers;
  const sim::FacilityConfig cfg = facility_config(false, o.seed, o.jobs);
  node_bytes_driver(cfg, L);

  FacilityRun plain = facility_batch(false, o.seed, o.jobs, out.notes);
  out.batches.push_back(plain.batch);
  FacilityRun traced;
  {
    ScopedSpan span("workload.run_facility");
    traced = facility_batch(false, o.seed, o.jobs, out.notes);
  }
  out.batches.push_back(traced.batch);
  L["facility.build_s"] = traced.result.walls.build_s;
  L["facility.core_s"] = traced.result.walls.core_s;
  L["trace.overhead_s"] = traced.wall_s - plain.wall_s;
  L["trace.overhead_frac"] = (traced.wall_s - plain.wall_s) / plain.wall_s;
  if (o.jobs > 1) {
    ScopedSpan span("workload.run_facility_1w");
    (void)one_worker_check(false, o, plain, out);
  }
  job_queue_driver(cfg, plain.result, L);

  // The capped facility (ROADMAP's production regime) once, at N workers
  // and at one: its walls, the parallel efficiency of its round loop, and
  // the federation traffic it caused. Not timed end to end.
  const sim::FacilityConfig capped_cfg = facility_config(true, o.seed, o.jobs);
  FacilityRun capped;
  {
    ScopedSpan span("workload.run_facility_capped");
    capped = facility_batch(true, o.seed, o.jobs, out.notes);
  }
  capped.batch.key = "facility_capped";
  out.batches.push_back(capped.batch);
  L["facility.capped_build_s"] = capped.result.walls.build_s;
  L["facility.capped_core_s"] = capped.result.walls.core_s;
  L["event_core.parallel_eff"] = 1.0;
  if (o.jobs > 1) {
    ScopedSpan span("workload.run_facility_capped_1w");
    const FacilityRun one = one_worker_check(true, o, capped, out);
    L["event_core.parallel_eff"] =
        one.result.walls.core_s /
        (static_cast<double>(o.jobs) * capped.result.walls.core_s);
  }
  stretch_driver(capped_cfg, capped.result, L);
  eargm_driver(capped_cfg, capped.result, L);
  return out;
}

// ---------------------------------------------------------- model check

struct Env {
  double compute_share;
  double dyn_share;
};

/// ear_model's three share environments, each nudged by up to ±0.02 from
/// the seed so different seeds check nearby environment models.
std::vector<Env> model_envs(std::uint64_t seed) {
  common::Rng rng(common::mix_seed(seed, 0x30DE1));
  std::vector<Env> envs{{1.0, 0.3}, {0.5, 0.5}, {0.1, 0.6}};
  for (Env& e : envs) {
    e.compute_share = std::clamp(e.compute_share + rng.uniform(-0.02, 0.02),
                                 0.0, 1.0);
    e.dyn_share += rng.uniform(-0.02, 0.02);
  }
  return envs;
}

perfbench::CallStats g_apply, g_validate, g_clone;

/// The shipped policy behind a timing wrapper: counts and times every
/// apply/validate/clone the checker makes.
class TimedEufs final : public analysis::EufsInstance {
 public:
  explicit TimedEufs(std::unique_ptr<analysis::EufsInstance> inner)
      : inner_(std::move(inner)) {}

  policies::PolicyState apply(const metrics::Signature& sig,
                              policies::NodeFreqs& out) override {
    ScopedSpan span("policy.apply", /*sampled=*/true);
    const std::int64_t t0 = perfbench::now_ns();
    const policies::PolicyState s = inner_->apply(sig, out);
    g_apply.add(perfbench::now_ns() - t0);
    return s;
  }
  bool validate(const metrics::Signature& sig) override {
    const std::int64_t t0 = perfbench::now_ns();
    const bool ok = inner_->validate(sig);
    g_validate.add(perfbench::now_ns() - t0);
    return ok;
  }
  analysis::Stage stage() const override { return inner_->stage(); }
  simhw::Pstate current_pstate() const override {
    return inner_->current_pstate();
  }
  const policies::ImcSearch& imc_search() const override {
    return inner_->imc_search();
  }
  const metrics::Signature& stable_reference() const override {
    return inner_->stable_reference();
  }
  std::unique_ptr<analysis::EufsInstance> clone() const override {
    const std::int64_t t0 = perfbench::now_ns();
    std::unique_ptr<analysis::EufsInstance> c = inner_->clone();
    g_clone.add(perfbench::now_ns() - t0);
    return std::make_unique<TimedEufs>(std::move(c));
  }

 private:
  std::unique_ptr<analysis::EufsInstance> inner_;
};

struct ModelRun {
  Batch batch;
  analysis::CheckReport total;  // counts summed over the environments
};

/// One model-check batch: ear_model_tight's thresholds over `envs`, every
/// policy call timed through TimedEufs. Set-up is building the lattice
/// and the checkers.
ModelRun model_batch(const std::vector<Env>& envs, std::size_t jobs,
                     std::vector<std::string>& notes) {
  ModelRun mr;
  Batch& b = mr.batch;
  b.key = "model_check";
  const simhw::PstateTable pstates;  // Skylake 6148 ladder
  const simhw::UncoreRange uncore;   // 1.2-2.4 GHz, 100 MHz bins
  analysis::CheckerOptions opts;
  opts.jobs = jobs;
  opts.hw_guided = true;
  opts.unc_policy_th = 0.002;
  opts.sig_change_th = 0.05;
  opts.pstates = pstates;
  opts.uncore = uncore;

  const auto t0 = Clock::now();
  std::vector<analysis::ModelChecker> checkers;
  const analysis::SignatureLattice lattice(
      analysis::SignatureLattice::default_base(), analysis::LatticeAxes{});
  for (const Env& env : envs) {
    policies::PolicyContext ctx;
    ctx.pstates = pstates;
    ctx.uncore = uncore;
    ctx.model =
        analysis::make_share_model(pstates, env.compute_share, env.dyn_share);
    ctx.settings.unc_policy_th = opts.unc_policy_th;
    ctx.settings.sig_change_th = opts.sig_change_th;
    ctx.settings.hw_guided_imc = true;
    checkers.emplace_back(
        [ctx] {
          return std::make_unique<TimedEufs>(analysis::make_real_eufs(ctx));
        },
        lattice, opts);
  }
  b.setup_s.push_back(seconds_since(t0));

  perfbench::Fnv1a h;
  for (analysis::ModelChecker& checker : checkers) {
    ScopedSpan span("workload.model_checker_env");
    const auto t0 = Clock::now();
    const analysis::CheckReport r = checker.run();
    b.work_s += seconds_since(t0);
    b.units += static_cast<double>(r.transitions);
    b.ops += 1;
    if (!r.ok() || r.states == 0) {
      b.errors += 1;
      notes.push_back(r.ok() ? "model check explored nothing"
                             : "model check violation: " +
                                   r.violations.front().property);
    }
    perfbench::digest_report(h, r);
    mr.total.states += r.states;
    mr.total.transitions += r.transitions;
    mr.total.convergence_replays += r.convergence_replays;
  }
  b.digest = perfbench::hex64(h.value());
  return mr;
}

/// The model checker's per-layer numbers over the seed's environments:
/// one run at the run's worker count and one at a single worker, whose
/// digests must agree (both batches share the model_check key).
void model_layers(const Options& o, Outcome& out) {
  Layers& L = out.layers;
  const std::vector<Env> envs = model_envs(o.seed);
  g_apply.reset();
  g_validate.reset();
  g_clone.reset();
  ModelRun traced;
  {
    ScopedSpan span("workload.model_check");
    SpanLog::instance().set_thread_root(span.id());
    traced = model_batch(envs, o.jobs, out.notes);
    SpanLog::instance().set_thread_root(0);
  }
  out.batches.push_back(traced.batch);
  const double calls = static_cast<double>(g_apply.calls());
  L["policies.apply_calls"] = calls;
  L["policies.apply_ns"] = per_call_ns(static_cast<double>(g_apply.ns()), calls);
  L["analysis.clone_calls"] = static_cast<double>(g_clone.calls());
  L["analysis.clone_ns"] = per_call_ns(static_cast<double>(g_clone.ns()),
                                       static_cast<double>(g_clone.calls()));
  L["analysis.states"] = static_cast<double>(traced.total.states);
  L["analysis.transitions"] = static_cast<double>(traced.total.transitions);
  L["analysis.convergence_replays"] =
      static_cast<double>(traced.total.convergence_replays);

  // One worker: the checker's own time is its wall minus the policy
  // calls it made (exact here, with no other thread running policies).
  g_apply.reset();
  g_validate.reset();
  g_clone.reset();
  ModelRun one;
  {
    ScopedSpan span("workload.model_check_1w");
    one = model_batch(envs, 1, out.notes);
  }
  const double policy_s =
      static_cast<double>(g_apply.ns() + g_validate.ns() + g_clone.ns()) / 1e9;
  L["analysis.self_s"] = one.batch.work_s - policy_s;
  out.batches.push_back(one.batch);
}

// ------------------------------------------------------------ output

std::string render(const Options& o, const Outcome& out) {
  const service::BuildStamp& stamp = service::build_stamp();
  service::JsonWriter j;
  j.begin_object();
  j.key("workload");
  j.value_str(o.workload);
  j.key("seed");
  j.value_u64(o.seed);
  j.key("jobs");
  j.value_u64(o.jobs);
  j.key("host_cpus");
  j.value_u64(host_cpus());
  j.key("trace");
  j.value_bool(o.trace);
  j.key("git_describe");
  j.value_str(stamp.git_describe);
  j.key("build_type");
  j.value_str(stamp.build_type);
  j.key("compiler");
  j.value_str(stamp.compiler);
  j.key("peak_rss_kb");
  j.value_u64(proc_status_kb("VmHWM"));
  j.key("batches");
  j.begin_array();
  for (const Batch& b : out.batches) {
    j.begin_object();
    j.key("setup_s");
    j.begin_array();
    for (const double s : b.setup_s) j.value_double(s);
    j.end_array();
    j.key("work_s");
    j.value_double(b.work_s);
    j.key("units");
    j.value_double(b.units);
    j.key("ops");
    j.value_u64(b.ops);
    j.key("errors");
    j.value_u64(b.errors);
    j.key("digest");
    j.value_str(b.digest);
    j.key("key");
    j.value_str(b.key);
    j.key("peak_rss_kb");
    j.value_u64(b.peak_rss_kb);
    j.end_object();
  }
  j.end_array();
  j.key("layers");
  j.begin_object();
  for (const auto& [name, v] : out.layers) {
    j.key(name);
    j.value_double(v);
  }
  j.end_object();
  j.key("notes");
  j.begin_array();
  for (const std::string& n : out.notes) j.value_str(n);
  j.end_array();
  j.end_object();
  return j.str();
}

// --------------------------------------------------------- self-test

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  {
    perfbench::Fnv1a empty, a;
    a.bytes("a");
    expect(empty.value() == 0xcbf29ce484222325ULL, "fnv1a of empty input");
    expect(a.value() == 0xaf63dc4c8601ec8cULL, "fnv1a of \"a\"");
    perfbench::Fnv1a x, y;
    x.str("ab");
    x.str("c");
    y.str("a");
    y.str("bc");
    expect(x.value() != y.value(), "length-prefixed strings differ");
  }
  {
    sim::FacilityConfig cfg = sim::make_facility_config(64, 2, 24, 7);
    cfg.core = sim::SimCore::kEvent;
    cfg.sim_jobs = 1;
    const sim::FacilityResult r1 = sim::run_facility(cfg);
    const sim::FacilityResult r2 = sim::run_facility(cfg);
    cfg.sim_jobs = 2;
    const sim::FacilityResult r3 = sim::run_facility(cfg);
    const std::uint64_t d = perfbench::digest_facility(r1);
    expect(d == perfbench::digest_facility(r2), "facility digest repeats");
    expect(d == perfbench::digest_facility(r3),
           "facility digest equal at 1 and 2 workers");
    sim::FacilityResult walls = r1;
    walls.walls.build_s += 1.0;
    walls.walls.core_s += 1.0;
    expect(d == perfbench::digest_facility(walls),
           "facility digest ignores host walls");
    sim::FacilityResult moved = r1;
    moved.jobs.front().energy_j =
        std::nextafter(moved.jobs.front().energy_j, 1e300);
    expect(d != perfbench::digest_facility(moved),
           "facility digest sees a one-ulp energy change");
  }
  {
    analysis::CheckReport r;
    r.states = 10;
    r.transitions = 40;
    r.digest = 0x1234;
    perfbench::Fnv1a h1, h2, h3;
    perfbench::digest_report(h1, r);
    perfbench::digest_report(h2, r);
    r.violations.push_back({"P1.convergence", "x", {}});
    perfbench::digest_report(h3, r);
    expect(h1.value() == h2.value(), "report digest repeats");
    expect(h1.value() != h3.value(), "report digest includes ok()");
  }
  expect(tail_percentile(135) == 90.0, "135 samples report p90");
  expect(tail_percentile(19) == 0.0, "19 samples report no tail");
  expect(tail_percentile(1000) == 99.0, "1000 samples report p99");
  expect(percentile({3.0, 1.0, 2.0, 4.0}, 50.0) == 2.0,
         "nearest-rank median");
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--jobs N --trace 0|1 --work-dir DIR --out FILE\n"
               "       perfbench_driver --self-test\n"
               "workloads: paper_campaign facility_churn\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const common::ArgParser args(argc, argv, {"self-test"});
    if (args.flag("self-test")) return self_test();
    Options o;
    o.workload = args.get("workload", std::string());
    o.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
    o.seconds = args.get("seconds", 10.0);
    o.jobs = static_cast<std::size_t>(args.get("jobs", std::int64_t{1}));
    o.trace = args.get("trace", std::int64_t{0}) != 0;
    o.work_dir = args.get("work-dir", std::string());
    o.out = args.get("out", std::string());
    if (o.work_dir.empty() || o.out.empty() || o.jobs == 0 ||
        !(o.seconds > 0.0)) {
      return usage();
    }
    // Scaling measured with more workers than cores is oversubscription,
    // not the design; refuse it.
    if (o.jobs > host_cpus()) {
      std::fprintf(stderr, "perfbench_driver: %zu workers > %zu host cpus\n",
                   o.jobs, host_cpus());
      return 2;
    }
    fs::create_directories(o.work_dir);
    SpanLog::instance().set_enabled(o.trace);

    Outcome out;
    if (o.workload == "paper_campaign") {
      out = run_paper_workload(o);
    } else if (o.workload == "facility_churn") {
      out = run_facility_workload(o);
    } else {
      return usage();
    }
    if (o.trace) {
      SpanLog& log = SpanLog::instance();
      out.layers["trace.spans"] = static_cast<double>(log.recorded());
      const fs::path spans = o.work_dir / "spans.json";
      if (!log.write_json(spans.string())) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     spans.c_str());
        return 1;
      }
    }
    std::ofstream f(o.out);
    f << render(o, out);
    if (!f) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   o.out.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
