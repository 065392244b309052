#include "analysis/model_checker.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "metrics/signature.hpp"

namespace ear::analysis {

namespace {

using common::Freq;
using metrics::Signature;
using policies::NodeFreqs;
using policies::PolicyState;

// --------------------------------------------------------------------
// Byte-exact serialisation: state keys, trace records and the digest all
// hash the same canonical bytes, so "equal" always means bitwise equal.
// --------------------------------------------------------------------

void feed_bytes(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

void feed_u64(std::string& out, std::uint64_t v) { feed_bytes(out, &v, sizeof v); }

void feed_double(std::string& out, double v) { feed_bytes(out, &v, sizeof v); }

void feed_signature(std::string& out, const Signature& s) {
  feed_double(out, s.iter_time_s);
  feed_double(out, s.cpi);
  feed_double(out, s.tpi);
  feed_double(out, s.gbps);
  feed_double(out, s.vpi);
  feed_double(out, s.wait_fraction);
  feed_double(out, s.dc_power_w);
  feed_u64(out, s.avg_cpu_freq.as_khz());
  feed_u64(out, s.avg_imc_freq.as_khz());
  feed_double(out, s.elapsed_s);
  feed_u64(out, s.iterations);
  out.push_back(s.valid ? 1 : 0);
}

void feed_freqs(std::string& out, const NodeFreqs& f) {
  feed_u64(out, f.cpu_pstate);
  feed_u64(out, f.imc_max.as_khz());
  feed_u64(out, f.imc_min.as_khz());
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over an accumulated byte string.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = kFnvBasis) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Live-variable state identity: per stage, only the fields that can
/// influence future behaviour (plus the applied frequencies, which shape
/// the next measured signature and the step-discipline checks). Keeping
/// a settled search's trial/reference out of the STABLE key is what
/// collapses the stable-anchored family from cubic to linear in the
/// lattice size — those fields are reset before they are ever read
/// again (restart()).
std::string state_key(const EufsInstance& p, const NodeFreqs& env) {
  std::string k;
  k.reserve(160);
  const Stage st = p.stage();
  k.push_back(static_cast<char>(st));
  feed_freqs(k, env);
  feed_u64(k, p.current_pstate());
  switch (st) {
    case Stage::kCpuFreqSel:
    case Stage::kCompRef:
      break;  // imc_ and stable_ref_ are in their reset state here
    case Stage::kImcFreqSel: {
      const policies::ImcSearch& s = p.imc_search();
      k.push_back(s.started() ? 1 : 0);
      feed_u64(k, s.current_trial().as_khz());
      feed_u64(k, s.last_good().as_khz());
      feed_u64(k, s.steps_taken());
      feed_signature(k, s.reference());
      break;
    }
    case Stage::kStable:
      feed_signature(k, p.stable_reference());
      break;
  }
  return k;
}

std::string step_record(const TraceStep& t) {
  std::string r;
  r.reserve(64);
  feed_u64(r, t.input);
  r.push_back(static_cast<char>(t.stage_before));
  r.push_back(static_cast<char>(t.stage_after));
  r.push_back(t.via_validate ? 1 : 0);
  r.push_back(static_cast<char>(t.verdict));
  feed_freqs(r, t.out);
  return r;
}

// --------------------------------------------------------------------
// The checker's environment model.
// --------------------------------------------------------------------

/// Deterministic analytic projection with an AVX512 licence twist: a
/// heavy-vector signature scales with the licence-capped effective
/// frequency, so the capped P-states are genuinely distinct points of
/// the abstract state space.
class ShareModel final : public models::EnergyModel {
 public:
  ShareModel(simhw::PstateTable pstates, double compute_share,
             double dyn_share)
      : pstates_(std::move(pstates)), c_(compute_share), d_(dyn_share) {}

  [[nodiscard]] std::string name() const override { return "share"; }

  [[nodiscard]] models::Prediction predict(const Signature& sig,
                                           simhw::Pstate from,
                                           simhw::Pstate to) const override {
    const bool avx = sig.vpi > 0.2;
    const Freq ff = avx ? pstates_.avx512_effective(pstates_.freq(from))
                        : pstates_.freq(from);
    const Freq ft = avx ? pstates_.avx512_effective(pstates_.freq(to))
                        : pstates_.freq(to);
    const double f = ff.as_ghz();
    const double fp = ft.as_ghz();
    models::Prediction p;
    p.time_s = sig.iter_time_s * ((1.0 - c_) + c_ * f / fp);
    p.power_w = sig.dc_power_w * ((1.0 - d_) + d_ * fp / f);
    p.cpi = sig.cpi;
    return p;
  }

 private:
  simhw::PstateTable pstates_;
  double c_;
  double d_;
};

/// The shipped policy behind the checker interface; clone() copies the
/// whole policy object, giving BFS O(1) state snapshots.
class RealEufs final : public EufsInstance {
 public:
  explicit RealEufs(policies::PolicyContext ctx) : p_(std::move(ctx)) {}
  RealEufs(const RealEufs&) = default;

  PolicyState apply(const Signature& sig, NodeFreqs& out) override {
    return p_.apply(sig, out);
  }
  [[nodiscard]] bool validate(const Signature& sig) override {
    return p_.validate(sig);
  }
  [[nodiscard]] Stage stage() const override { return p_.stage(); }
  [[nodiscard]] simhw::Pstate current_pstate() const override {
    return p_.current_pstate();
  }
  [[nodiscard]] const policies::ImcSearch& imc_search() const override {
    return p_.imc_search();
  }
  [[nodiscard]] const Signature& stable_reference() const override {
    return p_.stable_reference();
  }
  [[nodiscard]] std::unique_ptr<EufsInstance> clone() const override {
    return std::make_unique<RealEufs>(*this);
  }

 private:
  policies::MinEnergyEufsPolicy p_;
};

/// Pre-call observables the property checks compare against.
struct PreState {
  Stage stage = Stage::kCpuFreqSel;
  Freq trial;
  Freq last_good;
  Signature ref;
};

PreState observe(const EufsInstance& p) {
  PreState s;
  s.stage = p.stage();
  const policies::ImcSearch& imc = p.imc_search();
  s.trial = imc.current_trial();
  s.last_good = imc.last_good();
  s.ref = imc.reference();
  return s;
}

/// One EARL evaluation round against the policy: while STABLE the
/// library validates and only re-applies on a failed validation; in
/// every other stage the signature goes straight to apply().
TraceStep evaluate(EufsInstance& p, const Signature& sig, std::size_t input) {
  TraceStep t;
  t.input = input;
  t.stage_before = p.stage();
  if (t.stage_before == Stage::kStable && p.validate(sig)) {
    t.via_validate = true;
    t.verdict = PolicyState::kReady;
    t.stage_after = p.stage();
    return t;
  }
  t.verdict = p.apply(sig, t.out);
  t.stage_after = p.stage();
  return t;
}

struct PropertyFailure {
  std::string property;
  std::string detail;
};

std::string ghz_str(Freq f) { return f.str(); }

/// The paper's specification of one evaluation, checked against what the
/// policy actually did (P0 edges, P2 step discipline, P3 revert rule).
std::optional<PropertyFailure> check_transition(const PreState& pre,
                                                const Signature& sig,
                                                const TraceStep& t,
                                                const EufsInstance& post,
                                                const CheckerOptions& o) {
  if (t.via_validate) return std::nullopt;  // hold: no frequencies moved

  // P0: any net stage change must be a Fig. 2 edge.
  if (t.stage_after != t.stage_before &&
      !policies::MinEnergyEufsPolicy::legal_transition(t.stage_before,
                                                       t.stage_after)) {
    return PropertyFailure{"P0.legal-edge",
                           std::string("stage ") + stage_name(t.stage_before) +
                               " -> " + stage_name(t.stage_after) +
                               " is not in the Fig. 2 table"};
  }

  // Window well-formedness: on the grid, inside the range, min at floor.
  const Freq lo = o.uncore.min();
  const Freq hi = o.uncore.max();
  if (t.out.imc_max < lo || t.out.imc_max > hi ||
      (t.out.imc_max.as_khz() - lo.as_khz()) % o.uncore.step().as_khz() != 0) {
    return PropertyFailure{"P2.imc-step", "window maximum " +
                                              ghz_str(t.out.imc_max) +
                                              " off the uncore grid"};
  }
  if (t.out.imc_min != lo) {
    return PropertyFailure{
        "P2.imc-step", "window minimum moved to " + ghz_str(t.out.imc_min) +
                           "; min_energy policies must leave it at HW min"};
  }

  const bool to_search = t.stage_after == Stage::kImcFreqSel;
  const bool from_search = pre.stage == Stage::kImcFreqSel;

  // Restart edges (any stage -> CPU_FREQ_SEL) must reopen the window.
  if (t.stage_after == Stage::kCpuFreqSel) {
    if (t.out.imc_max != hi) {
      return PropertyFailure{"P2.imc-step",
                             "restart left the window at " +
                                 ghz_str(t.out.imc_max) +
                                 " instead of reopening it"};
    }
    if (from_search &&
        !metrics::signature_changed(pre.ref, sig, o.sig_change_th)) {
      return PropertyFailure{
          "P3.revert-iff",
          "restarted mid-search without a phase change (inputs within the "
          "signature-change threshold)"};
    }
    return std::nullopt;
  }

  // COMP_REF measures with the hardware in control: open window.
  if (t.stage_after == Stage::kCompRef) {
    if (t.out.imc_max != hi) {
      return PropertyFailure{"P2.imc-step",
                             "COMP_REF must leave the uncore window open, "
                             "got " +
                                 ghz_str(t.out.imc_max)};
    }
    return std::nullopt;
  }

  // Entering the search: the reference is the signature in hand and the
  // first trial starts from the HW-selected value (or the maximum, NG-U).
  if (to_search && !from_search) {
    std::string want_ref;
    std::string got_ref;
    feed_signature(want_ref, sig);
    feed_signature(got_ref, post.imc_search().reference());
    if (want_ref != got_ref) {
      return PropertyFailure{"P3.revert-iff",
                             "search reference is not the signature in hand"};
    }
    const Freq expect = o.hw_guided
                            ? o.uncore.step_down(o.uncore.clamp(sig.avg_imc_freq))
                            : hi;
    if (t.out.imc_max != expect || t.verdict != PolicyState::kContinue) {
      return PropertyFailure{
          "P2.imc-step", "search must start at " + ghz_str(expect) +
                             " (one step below the HW-selected clock), got " +
                             ghz_str(t.out.imc_max)};
    }
    return std::nullopt;
  }

  // Mid-search step: revert iff a guard tripped, else exactly one grid
  // step down (or settle at the floor).
  if (from_search) {
    if (metrics::signature_changed(pre.ref, sig, o.sig_change_th)) {
      // Handled by the restart branch above; reaching here means the
      // policy ignored a phase change.
      return PropertyFailure{"P3.revert-iff",
                             "phase change during the search was ignored"};
    }
    const bool guard =
        sig.cpi > pre.ref.cpi * (1.0 + o.unc_policy_th) ||
        sig.gbps < pre.ref.gbps * (1.0 - o.unc_policy_th);
    if (guard) {
      if (t.verdict != PolicyState::kReady ||
          t.stage_after != Stage::kStable) {
        return PropertyFailure{"P3.revert-iff",
                               "guard breached (CPI/GB-s beyond "
                               "unc_policy_th) but the search continued"};
      }
      if (t.out.imc_max != pre.last_good) {
        return PropertyFailure{
            "P3.revert-iff", "guard breach must revert to the last good "
                             "setting " +
                                 ghz_str(pre.last_good) + ", got " +
                                 ghz_str(t.out.imc_max)};
      }
    } else if (pre.trial > lo) {
      if (t.verdict != PolicyState::kContinue ||
          t.stage_after != Stage::kImcFreqSel) {
        return PropertyFailure{"P3.revert-iff",
                               "no guard breach but the search stopped "
                               "above the floor"};
      }
      if (t.out.imc_max != o.uncore.step_down(pre.trial)) {
        return PropertyFailure{
            "P2.imc-step", "expected a single 0.1 GHz step from " +
                               ghz_str(pre.trial) + ", got " +
                               ghz_str(t.out.imc_max)};
      }
    } else {
      if (t.verdict != PolicyState::kReady ||
          t.out.imc_max != pre.trial) {
        return PropertyFailure{"P2.imc-step",
                               "at the grid floor the search must settle "
                               "in place"};
      }
    }
    return std::nullopt;
  }

  return std::nullopt;
}

// Successor-table entries: the successor's id, with kReadyBit set when the
// transition's verdict was READY, or kNoSucc for a transition that failed
// a property and was not explored past.
constexpr std::uint32_t kReadyBit = 0x80000000U;
constexpr std::uint32_t kNoSucc = 0xffffffffU;

struct Node {
  std::unique_ptr<EufsInstance> inst;
  std::uint64_t key_fnv = 0;  // FNV-1a of the state key
  NodeFreqs env;
  std::uint32_t parent = 0;  // the root is state 0
  std::uint32_t depth = 0;
  std::size_t input = 0;  // lattice input on the edge from parent
};

/// One (state, input) transition as a worker leaves it for the merge. A
/// successor the index already held comes back as its id alone; only an
/// unresolved one keeps its key and policy snapshot.
struct Succ {
  std::uint64_t word = 0;  // digest word: FNV-1a of the key, then the step
  std::uint32_t id = kNoSucc;
  TraceStep step;
  std::string key;
  std::unique_ptr<EufsInstance> inst;
  std::optional<PropertyFailure> failure;
};

}  // namespace

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kCpuFreqSel:
      return "CPU_FREQ_SEL";
    case Stage::kCompRef:
      return "COMP_REF";
    case Stage::kImcFreqSel:
      return "IMC_FREQ_SEL";
    case Stage::kStable:
      return "READY";
  }
  return "?";
}

models::EnergyModelPtr make_share_model(simhw::PstateTable pstates,
                                        double compute_share,
                                        double dyn_share) {
  return std::make_shared<ShareModel>(std::move(pstates), compute_share,
                                      dyn_share);
}

std::unique_ptr<EufsInstance> make_real_eufs(policies::PolicyContext ctx) {
  return std::make_unique<RealEufs>(std::move(ctx));
}

ModelChecker::ModelChecker(InstanceFactory factory, SignatureLattice lattice,
                           CheckerOptions opts)
    : factory_(std::move(factory)),
      lattice_(std::move(lattice)),
      opts_(std::move(opts)) {
  EAR_CHECK_MSG(factory_ != nullptr, "model checker needs a policy factory");
  EAR_CHECK_MSG(lattice_.size() > 0, "empty signature lattice");
  EAR_CHECK_MSG(opts_.max_states < kReadyBit, "max_states must be below 2^31");
}

CheckReport ModelChecker::run() {
  CheckReport report;
  const std::size_t jobs = common::resolve_jobs(opts_.jobs);
  const std::size_t L = lattice_.size();
  const NodeFreqs root_env{.cpu_pstate = opts_.pstates.nominal_pstate(),
                           .imc_max = opts_.uncore.max(),
                           .imc_min = opts_.uncore.min()};

  std::vector<Node> nodes;
  std::unordered_map<std::string, std::uint32_t> index;
  // Row s holds the L successor-table entries of state s.
  std::vector<std::uint32_t> table;

  const auto add_violation = [&](std::string property, std::string detail,
                                 std::vector<TraceStep> trace) {
    if (report.violations.size() >= opts_.max_violations) return;
    report.violations.push_back(
        {std::move(property), std::move(detail), std::move(trace)});
  };

  const auto inputs_to = [&](std::uint32_t id) {
    std::vector<std::size_t> inputs;
    for (std::uint32_t n = id; n != 0; n = nodes[n].parent) {
      inputs.push_back(nodes[n].input);
    }
    std::reverse(inputs.begin(), inputs.end());
    return inputs;
  };

  /// One lattice point as measured at `env`: the CPU clock is stamped
  /// from the applied P-state.
  const auto measured = [&](std::size_t input, const NodeFreqs& env) {
    Signature sig = lattice_.at(input);
    sig.avg_cpu_freq = opts_.pstates.freq(env.cpu_pstate);
    return sig;
  };

  /// Feeds `inputs` to a fresh policy: the steps it takes. Counterexample
  /// traces and the P5 replays both come from here.
  const auto replay = [&](const std::vector<std::size_t>& inputs) {
    std::unique_ptr<EufsInstance> inst = factory_();
    NodeFreqs env = root_env;
    std::vector<TraceStep> steps;
    for (std::size_t input : inputs) {
      steps.push_back(evaluate(*inst, measured(input, env), input));
      if (!steps.back().via_validate) env = steps.back().out;
    }
    return steps;
  };

  {
    Node root;
    root.inst = factory_();
    root.env = root_env;
    const std::string key = state_key(*root.inst, root.env);
    root.key_fnv = fnv1a(key);
    index.emplace(key, 0);
    nodes.push_back(std::move(root));
  }

  std::uint64_t digest = kFnvBasis;
  bool exploded = false;

  // BFS in fixed-size chunks of the id-ordered queue: workers expand
  // (state, input) pairs and resolve known successors against the index,
  // which only the merge writes, between chunks; the merge walks results
  // in (state, input) order, so node ids and the digest are identical at
  // any thread count.
  constexpr std::size_t kChunk = 128;
  for (std::size_t base = 0; base < nodes.size() && !exploded;) {
    const std::size_t count = std::min(kChunk, nodes.size() - base);
    std::vector<std::vector<Succ>> results(count);
    common::parallel_for(
        count,
        [&](std::size_t i) {
          const Node& from = nodes[base + i];
          std::vector<Succ>& out = results[i];
          out.resize(L);
          for (std::size_t input = 0; input < L; ++input) {
            Succ& s = out[input];
            std::unique_ptr<EufsInstance> inst = from.inst->clone();
            std::string key;
            try {
              const Signature sig = measured(input, from.env);
              const PreState pre = observe(*inst);
              s.step = evaluate(*inst, sig, input);
              s.failure = check_transition(pre, sig, s.step, *inst, opts_);
              key = state_key(*inst,
                              s.step.via_validate ? from.env : s.step.out);
            } catch (const common::ContractViolation& e) {
              s.step = TraceStep{.input = input,
                                 .stage_before = from.inst->stage(),
                                 .stage_after = from.inst->stage()};
              s.failure = PropertyFailure{"P0.contract", e.what()};
            }
            const auto it = s.failure ? index.end() : index.find(key);
            if (it != index.end()) {
              s.id = it->second;
              s.word = fnv1a(step_record(s.step), nodes[s.id].key_fnv);
            } else {
              s.word = fnv1a(step_record(s.step), fnv1a(key));
              s.key = std::move(key);
              s.inst = std::move(inst);
            }
          }
        },
        jobs);

    // Deterministic merge.
    table.resize((base + count) * L, kNoSucc);
    for (std::size_t i = 0; i < count && !exploded; ++i) {
      const auto from_id = static_cast<std::uint32_t>(base + i);
      for (Succ& s : results[i]) {
        ++report.transitions;
        digest = (digest ^ s.word) * kFnvPrime;
        if (s.failure) {
          if (report.violations.size() < opts_.max_violations) {
            std::vector<TraceStep> trace = replay(inputs_to(from_id));
            trace.push_back(s.step);
            add_violation(s.failure->property, s.failure->detail,
                          std::move(trace));
          }
          continue;  // don't explore past a broken transition
        }
        if (s.id == kNoSucc) {
          const auto [it, fresh] = index.emplace(
              std::move(s.key), static_cast<std::uint32_t>(nodes.size()));
          s.id = it->second;
          if (fresh) {
            const Node& from = nodes[from_id];
            Node n;
            n.inst = std::move(s.inst);
            n.key_fnv = fnv1a(it->first);
            n.env = s.step.via_validate ? from.env : s.step.out;
            n.parent = from_id;
            n.depth = from.depth + 1;
            n.input = s.step.input;
            report.max_depth = std::max<std::size_t>(report.max_depth, n.depth);
            nodes.push_back(std::move(n));
            if (nodes.size() > opts_.max_states) {
              add_violation("state-explosion",
                            "exceeded max_states = " +
                                std::to_string(opts_.max_states) +
                                "; state identity is likely broken",
                            replay(inputs_to(s.id)));
              exploded = true;
              break;
            }
          }
        }
        table[from_id * L + s.step.input] =
            s.id | (s.step.verdict == PolicyState::kReady ? kReadyBit : 0);
      }
    }
    base += count;
  }

  const auto n_states = static_cast<std::uint32_t>(nodes.size());
  report.states = n_states;
  report.digest = digest;
  if (exploded) return report;

  // ------------------------------------------------------------------
  // P4: the graph minus restart edges and stable holds must be acyclic.
  // ------------------------------------------------------------------
  {
    enum : unsigned char { kWhite, kGrey, kLooped, kBlack };
    std::vector<unsigned char> colour(n_states, kWhite);
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    for (std::uint32_t start = 0;
         start < n_states && report.violations.size() < opts_.max_violations;
         ++start) {
      if (colour[start] != kWhite) continue;
      stack.emplace_back(start, 0);
      colour[start] = kGrey;
      while (!stack.empty()) {
        auto& [n, input] = stack.back();
        if (input == L) {
          colour[n] = kBlack;
          stack.pop_back();
          continue;
        }
        const std::uint32_t entry = table[n * L + input++];
        const std::uint32_t m = entry & ~kReadyBit;
        if (entry == kNoSucc || m == n) continue;  // failed, stable hold
        if (nodes[m].inst->stage() == Stage::kCpuFreqSel) continue;  // restart
        if (colour[m] == kGrey) {
          colour[m] = kLooped;  // one counterexample per cycle entry
          std::vector<std::size_t> inputs = inputs_to(n);
          inputs.push_back(input - 1);
          add_violation("P4.no-livelock",
                        std::string("cycle through ") +
                            stage_name(nodes[m].inst->stage()) +
                            " without a restart: the policy can oscillate "
                            "forever",
                        replay(inputs));
        } else if (colour[m] == kWhite) {
          colour[m] = kGrey;
          stack.emplace_back(m, 0);
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // P1: from every reachable state, holding any input constant must reach
  // READY (or a passing validation) within the bound. Holding input i
  // walks column i of the table; a failed transition ends the walk, as P1
  // makes no claim past it.
  // ------------------------------------------------------------------
  {
    const std::size_t bound =
        2 * (opts_.pstates.size() + opts_.uncore.num_steps() + 8);
    const auto over = static_cast<std::uint32_t>(bound + 1);
    constexpr std::uint32_t kOnChain = 0xffffffffU;
    // Per input, the first state (in BFS order) that misses the bound.
    std::vector<std::uint32_t> failing(L, kNoSucc);
    common::parallel_for(
        L,
        [&](std::size_t input) {
          // dist[s]: evaluations from s until the walk ends, capped at
          // `over`; 0 = not yet known.
          std::vector<std::uint32_t> dist(n_states, 0);
          std::vector<std::uint32_t> chain;
          for (std::uint32_t s = 0; s < n_states; ++s) {
            std::uint32_t after = 0;  // evaluations past the chain's end
            for (std::uint32_t cur = s;;) {
              if (dist[cur] != 0) {
                after = dist[cur] == kOnChain ? over : dist[cur];  // cycle
                break;
              }
              dist[cur] = kOnChain;
              chain.push_back(cur);
              const std::uint32_t entry = table[cur * L + input];
              if (entry == kNoSucc || (entry & kReadyBit) != 0) break;
              cur = entry;
            }
            for (; !chain.empty(); chain.pop_back()) {
              after = std::min(after + 1, over);
              dist[chain.back()] = after;
            }
            if (dist[s] == over) {
              failing[input] = s;
              return;
            }
          }
        },
        jobs);
    report.convergence_replays = n_states * L;
    for (std::size_t input = 0; input < L; ++input) {
      if (failing[input] == kNoSucc) continue;
      std::vector<std::size_t> inputs = inputs_to(failing[input]);
      inputs.insert(inputs.end(), bound, input);
      add_violation("P1.convergence",
                    "holding input #" + std::to_string(input) + " (" +
                        lattice_.describe(input) +
                        ") constant did not reach READY within " +
                        std::to_string(bound) + " evaluations",
                    replay(inputs));
    }
  }

  // ------------------------------------------------------------------
  // P5: replaying a trace twice is bitwise identical, for the first
  // `determinism_samples` states in BFS order and the last (deepest) one.
  // ------------------------------------------------------------------
  std::vector<std::uint32_t> samples(
      std::min<std::size_t>(n_states, opts_.determinism_samples));
  std::iota(samples.begin(), samples.end(), 0);
  if (n_states > samples.size()) samples.push_back(n_states - 1);
  for (std::uint32_t id : samples) {
    const std::vector<std::size_t> inputs = inputs_to(id);
    if (inputs.empty()) continue;
    ++report.determinism_replays;
    if (replay(inputs) != replay(inputs)) {
      add_violation("P5.determinism",
                    "two replays of the same input trace diverged",
                    replay(inputs));
    }
  }

  return report;
}

std::string ModelChecker::render_trace(const Violation& v) const {
  common::AsciiTable table(v.property + ": " + v.detail);
  table.columns({"#", "input (lattice coordinates)", "edge", "verdict",
                 "cpu_pstate", "imc_max", "imc_min"},
                {common::Align::kRight, common::Align::kLeft,
                 common::Align::kLeft, common::Align::kLeft,
                 common::Align::kRight, common::Align::kRight,
                 common::Align::kRight});
  std::size_t i = 0;
  for (const TraceStep& t : v.trace) {
    const std::string edge = std::string(stage_name(t.stage_before)) +
                             (t.via_validate ? " (hold)" : " -> ") +
                             (t.via_validate ? "" : stage_name(t.stage_after));
    const std::string verdict = t.via_validate
                                    ? "validate: pass"
                                    : (t.verdict == PolicyState::kReady
                                           ? "READY"
                                           : "CONTINUE");
    if (t.via_validate) {
      table.add_row({std::to_string(++i), lattice_.describe(t.input), edge,
                     verdict, "-", "-", "-"});
    } else {
      table.add_row({std::to_string(++i), lattice_.describe(t.input), edge,
                     verdict, std::to_string(t.out.cpu_pstate),
                     t.out.imc_max.str(), t.out.imc_min.str()});
    }
  }
  return table.render();
}

}  // namespace ear::analysis
