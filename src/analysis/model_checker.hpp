// Explicit-state model checker for the Fig. 2 eUFS policy machine.
//
// The checker drives the *real* MinEnergyEufsPolicy object — not a
// re-implementation — through every signature in a finite abstract
// lattice (signature_lattice.hpp), BFS-enumerating the reachable
// (stage x selected-freqs x quantised-signature) space. Runtime
// assertions only ever see the traces our benchmarks happen to produce;
// here every reachable state sees every abstract input, so a policy edit
// that breaks the state machine on some exotic workload shape fails the
// build instead of a production run.
//
// Checked temporal properties:
//   P0 legal-edge    every observed stage change is an edge of the
//                    Fig. 2 table (MinEnergyEufsPolicy::legal_transition),
//                    and no apply() throws a contract violation.
//   P1 convergence   from every reachable state, holding any lattice
//                    input constant reaches READY (or a passing
//                    validation) within a bounded number of evaluations —
//                    the search cannot wedge. Decided on the explored
//                    graph: holding input i follows column i of the
//                    successor table.
//   P2 imc-step      the IMC window maximum only ever moves in single
//                    0.1 GHz grid steps, starting from the HW-selected
//                    frequency (or the range maximum for NG-U), and
//                    reopens fully on restart.
//   P3 revert-iff    while searching, the policy reverts to the last
//                    good setting iff CPI growth or GB/s drop exceeds
//                    unc_policy_th (otherwise it takes exactly the next
//                    step down, or settles at the floor).
//   P4 no-livelock   the transition graph minus restart edges and stable
//                    holds is acyclic: no oscillation between IMC steps,
//                    no cycle that dodges READY without a restart.
//   P5 determinism   replaying any input trace twice produces bitwise
//                    identical outputs (frequencies, stages, verdicts).
//
// State identity uses a live-variable reduction: per stage, only the
// fields that can influence future behaviour enter the fingerprint
// (e.g. a settled search's trial/ref are dead once STABLE, because the
// only outgoing edges re-anchor or restart). This is what keeps the
// stable-anchored state family linear in the lattice size instead of
// cubic. Frontier expansion fans out with common::parallel_for: workers
// evaluate each (state, input) transition once and resolve known
// successors against the state index; a sequential, index-ordered merge
// adds the new states, so the explored set, the digest and every
// counterexample are bitwise identical at any thread count. The merge
// records each transition in a states x lattice successor table (4 B an
// entry), on which P1 and P4 run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/signature_lattice.hpp"
#include "policies/min_energy_eufs.hpp"
#include "policies/policy_api.hpp"
#include "simhw/pstate.hpp"

namespace ear::analysis {

using Stage = policies::MinEnergyEufsPolicy::Stage;

/// The checker's handle on a policy under test. clone() snapshots the
/// complete policy state, which is what lets BFS expand a frontier node
/// without replaying its whole input path. Tests wrap mutants (broken
/// transition tables, double IMC steps) behind the same interface to
/// prove the properties actually catch them.
class EufsInstance {
 public:
  virtual ~EufsInstance() = default;
  virtual policies::PolicyState apply(const metrics::Signature& sig,
                                      policies::NodeFreqs& out) = 0;
  [[nodiscard]] virtual bool validate(const metrics::Signature& sig) = 0;
  [[nodiscard]] virtual Stage stage() const = 0;
  [[nodiscard]] virtual simhw::Pstate current_pstate() const = 0;
  [[nodiscard]] virtual const policies::ImcSearch& imc_search() const = 0;
  [[nodiscard]] virtual const metrics::Signature& stable_reference()
      const = 0;
  [[nodiscard]] virtual std::unique_ptr<EufsInstance> clone() const = 0;
};

using InstanceFactory = std::function<std::unique_ptr<EufsInstance>()>;

/// The shipped policy behind the checker interface.
[[nodiscard]] std::unique_ptr<EufsInstance> make_real_eufs(
    policies::PolicyContext ctx);

/// Deterministic analytic energy model for the checker's environment:
/// T' = T * ((1-c) + c * f/f'), P' = P * ((1-d) + d * f'/f) with compute
/// share c and dynamic-power share d. Different (c, d) points steer the
/// CPU search to different P-states, so checking a handful of share
/// configurations covers the shortcut edge, the COMP_REF path and the
/// AVX512-capped selections.
[[nodiscard]] models::EnergyModelPtr make_share_model(
    simhw::PstateTable pstates, double compute_share, double dyn_share);

struct CheckerOptions {
  std::size_t jobs = 0;  ///< worker threads (0 = common::default_jobs()).
  /// Abort (as a violation) if exploration exceeds this many states —
  /// a state-identity bug shows up as an explosion, not a hang. The
  /// successor table costs states x lattice x 4 B.
  std::size_t max_states = 500'000;
  /// P5 replays: every path to the first `determinism_samples` states in
  /// BFS order (plus the deepest state) is replayed twice and compared.
  std::size_t determinism_samples = 32;
  /// Stop recording violations past this many (exploration still
  /// completes, so the states/transitions numbers stay meaningful).
  std::size_t max_violations = 25;
  /// Expected search start: HW-guided (step below the observed IMC
  /// clock) or NG-U (range maximum). Must match the policy under test.
  bool hw_guided = true;
  double unc_policy_th = 0.02;
  double sig_change_th = 0.15;
  simhw::PstateTable pstates;
  simhw::UncoreRange uncore;
};

/// One evaluation in a counterexample trace.
struct TraceStep {
  std::size_t input = 0;  ///< lattice index fed at this step
  Stage stage_before = Stage::kCpuFreqSel;
  Stage stage_after = Stage::kCpuFreqSel;
  bool via_validate = false;  ///< STABLE hold: validate() passed, no apply
  policies::PolicyState verdict = policies::PolicyState::kContinue;
  policies::NodeFreqs out;

  friend bool operator==(const TraceStep&, const TraceStep&) = default;
};

struct Violation {
  std::string property;  ///< "P2.imc-step", "P1.convergence", ...
  std::string detail;
  std::vector<TraceStep> trace;  ///< from the initial state
};

struct CheckReport {
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t max_depth = 0;
  /// (state, held input) pairs P1 decided: states x lattice size. Its
  /// bound is 2 * (pstates + uncore grid + 8), enough for one
  /// phase-change restart plus a full search.
  std::size_t convergence_replays = 0;
  std::size_t determinism_replays = 0;
  /// h = (h ^ w) * FNV prime from the FNV-1a offset basis, over one word
  /// w per transition in (state, input) order, where w is FNV-1a over the
  /// successor's state key followed by the step record. Two runs of the
  /// same configuration must agree bit for bit.
  std::uint64_t digest = 0;
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

class ModelChecker {
 public:
  ModelChecker(InstanceFactory factory, SignatureLattice lattice,
               CheckerOptions opts);

  /// Exhaustive exploration + property checks. Deterministic at any
  /// thread count.
  [[nodiscard]] CheckReport run();

  /// Render a counterexample as a step table (common/table) with the
  /// lattice coordinates of every input.
  [[nodiscard]] std::string render_trace(const Violation& v) const;

  [[nodiscard]] const SignatureLattice& lattice() const { return lattice_; }

 private:
  InstanceFactory factory_;
  SignatureLattice lattice_;
  CheckerOptions opts_;
};

[[nodiscard]] const char* stage_name(Stage s);

}  // namespace ear::analysis
