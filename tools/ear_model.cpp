// ear_model — exhaustive model checker for the Fig. 2 eUFS state machine.
//
// Drives the real MinEnergyEufsPolicy through every point of the abstract
// signature lattice from every reachable state (src/analysis) and checks
// the temporal properties P0..P5 (legal edges, bounded convergence, IMC
// step discipline, revert-iff-guard-breach, no livelock, determinism).
// P1 holds each of the lattice inputs from every state, decided on the
// explored graph ("P1 checks" = states x inputs). Each run repeats the
// check under several analytic environment models (compute share x
// dynamic-power share) so the CPU search exercises the shortcut edge, the
// COMP_REF path and deep P-state selections; each must explore a graph
// of its own.
//
//   ear_model [--unc-th X] [--sig-th X] [--ng-u] [--share C,D]
//             [--jobs N] [--samples N] [--max-states N]
//             [--max-violations N] [--counterexample-out FILE]
//             [--recheck-serial]
//
// Exit status: 0 = every property holds in every configuration, 1 = at
// least one violation or two environment points with the same digest
// (counterexamples on stdout and, if requested, in the
// --counterexample-out file), 2 = usage error or a bad option value
// ("ear_model: <message>" on stderr).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/model_checker.hpp"
#include "analysis/signature_lattice.hpp"
#include "common/args.hpp"
#include "common/error.hpp"
#include "common/ini.hpp"
#include "common/table.hpp"

namespace {

using namespace ear;

int usage() {
  std::printf(
      "usage: ear_model [options]\n"
      "  --unc-th X             uncore guard threshold (default 0.02)\n"
      "  --sig-th X             phase-change threshold (default 0.15)\n"
      "  --ng-u                 check the NG-U (non-guided) search start\n"
      "  --share C,D            single environment model (compute share,\n"
      "                         dynamic-power share) instead of the\n"
      "                         default three-point set\n"
      "  --jobs N               worker threads (0 = all cores)\n"
      "  --samples N            P5 determinism replays (default 32)\n"
      "  --max-states N         state-explosion bound (default 500000)\n"
      "  --max-violations N     stop recording past N (default 25)\n"
      "  --counterexample-out F write rendered counterexamples to F\n"
      "  --recheck-serial       re-explore single-threaded and require\n"
      "                         an identical digest\n");
  return 2;
}

struct EnvConfig {
  double compute_share;
  double dyn_share;
};

std::string hex_digest(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

int run(const common::ArgParser& args) {
  if (args.flag("help")) return usage();
  args.require_known({"unc-th", "sig-th", "ng-u", "share", "jobs", "samples",
                      "max-states", "max-violations", "counterexample-out",
                      "recheck-serial", "help"});

  const double unc_th = args.get("unc-th", 0.02);
  const double sig_th = args.get("sig-th", 0.15);
  const bool hw_guided = !args.flag("ng-u");
  const std::size_t jobs = args.get("jobs", std::uint64_t{0});

  std::vector<EnvConfig> envs{{1.0, 0.3}, {0.3, 0.5}, {0.1, 0.6}};
  if (args.has("share")) {
    const std::vector<std::string> share =
        common::split_list(args.get("share", std::string{}));
    if (share.size() != 2) {
      std::fprintf(stderr, "ear_model: --share expects C,D\n");
      return usage();
    }
    envs = {{common::parse_number(share[0], "option --share"),
             common::parse_number(share[1], "option --share")}};
  }

  const simhw::PstateTable pstates;   // Skylake 6148 ladder
  const simhw::UncoreRange uncore;    // 1.2-2.4 GHz, 100 MHz bins

  analysis::CheckerOptions opts;
  opts.jobs = jobs;
  opts.max_states = args.get("max-states", std::uint64_t{500'000});
  opts.determinism_samples = args.get("samples", std::uint64_t{32});
  opts.max_violations = args.get("max-violations", std::uint64_t{25});
  opts.hw_guided = hw_guided;
  opts.unc_policy_th = unc_th;
  opts.sig_change_th = sig_th;
  opts.pstates = pstates;
  opts.uncore = uncore;

  const analysis::SignatureLattice lattice(
      analysis::SignatureLattice::default_base(), analysis::LatticeAxes{});

  common::AsciiTable summary("eUFS model check (" +
                             std::string(hw_guided ? "HW-guided" : "NG-U") +
                             ", unc_th " + common::AsciiTable::num(unc_th, 3) +
                             ", sig_th " + common::AsciiTable::num(sig_th, 3) +
                             ")");
  summary.columns({"env (c,d)", "states", "transitions", "depth",
                   "P1 checks", "P5 replays", "digest", "violations", "ms"},
                  {common::Align::kLeft, common::Align::kRight,
                   common::Align::kRight, common::Align::kRight,
                   common::Align::kRight, common::Align::kRight,
                   common::Align::kLeft, common::Align::kRight,
                   common::Align::kRight});

  std::string counterexamples;
  bool failed = false;
  std::vector<std::pair<std::uint64_t, std::string>> seen;  // digest, point

  for (const EnvConfig& env : envs) {
    char point[32];
    std::snprintf(point, sizeof point, "(%.2f, %.2f)", env.compute_share,
                  env.dyn_share);
    policies::PolicyContext ctx;
    ctx.pstates = pstates;
    ctx.uncore = uncore;
    ctx.model =
        analysis::make_share_model(pstates, env.compute_share, env.dyn_share);
    ctx.settings.unc_policy_th = unc_th;
    ctx.settings.sig_change_th = sig_th;
    ctx.settings.hw_guided_imc = hw_guided;

    analysis::ModelChecker checker(
        [ctx] { return analysis::make_real_eufs(ctx); }, lattice, opts);

    const auto t0 = std::chrono::steady_clock::now();
    const analysis::CheckReport report = checker.run();
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    std::string digest = hex_digest(report.digest);
    for (const auto& [other_digest, other] : seen) {
      if (other_digest == report.digest) {
        failed = true;
        counterexamples += "environment points " + other + " and " + point +
                           " explore the same graph (digest " + digest +
                           "): replace one\n";
      }
    }
    seen.emplace_back(report.digest, point);

    if (args.flag("recheck-serial")) {
      analysis::CheckerOptions serial = opts;
      serial.jobs = 1;
      analysis::ModelChecker recheck(
          [ctx] { return analysis::make_real_eufs(ctx); }, lattice, serial);
      const analysis::CheckReport serial_report = recheck.run();
      if (serial_report.digest != report.digest) {
        failed = true;
        digest += " != serial " + hex_digest(serial_report.digest);
        counterexamples += "P5.determinism: parallel and single-threaded "
                           "exploration digests differ\n";
      } else {
        digest += " (=serial)";
      }
    }

    summary.add_row({point, std::to_string(report.states),
                     std::to_string(report.transitions),
                     std::to_string(report.max_depth),
                     std::to_string(report.convergence_replays),
                     std::to_string(report.determinism_replays), digest,
                     std::to_string(report.violations.size()),
                     std::to_string(ms)});

    for (const analysis::Violation& v : report.violations) {
      failed = true;
      counterexamples += checker.render_trace(v);
      counterexamples += "\n";
    }
  }

  summary.print();
  if (!counterexamples.empty()) {
    std::printf("\n%s", counterexamples.c_str());
  }
  if (args.has("counterexample-out") && failed) {
    const std::string path = args.get("counterexample-out", std::string{});
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "ear_model: cannot write %s\n", path.c_str());
      return 2;
    }
    out << counterexamples;
    std::printf("counterexamples written to %s\n", path.c_str());
  }
  std::printf(failed ? "\nFAIL: see the report above\n"
                     : "\nOK: P0..P5 hold over the explored space\n");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(common::ArgParser(
        argc, argv, {"ng-u", "recheck-serial", "help"}));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ear_model: %s\n", e.what());
    return 2;
  }
}
