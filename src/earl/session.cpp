#include "earl/session.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace ear::earl {

EarlSession::EarlSession(eard::NodeDaemon& daemon, policies::PolicyPtr policy,
                         EarlSettings settings, bool is_mpi)
    : daemon_(&daemon),
      policy_(std::move(policy)),
      settings_(std::move(settings)),
      is_mpi_(is_mpi),
      dynais_(settings_.dynais) {
  EAR_CHECK_MSG(policy_ != nullptr, "session requires a policy");
  daemon_->set_freqs(policy_->default_freqs());
  state_ = State::kNoLoop;
}

void EarlSession::on_mpi_call(std::uint32_t event_id) {
  EAR_CHECK_MSG(is_mpi_, "MPI events on a non-MPI session");
  const auto result = dynais_.push(event_id);
  switch (result.status) {
    case dynais::Status::kNewLoop:
      // A loop was just detected: open the first measurement window.
      window_start_ = daemon_->snapshot();
      window_open_ = true;
      iterations_in_window_ = 0;
      if (state_ == State::kNoLoop) state_ = State::kNodePolicy;
      break;
    case dynais::Status::kNewIteration:
      if (!window_open_) {
        window_start_ = daemon_->snapshot();
        window_open_ = true;
        iterations_in_window_ = 0;
        break;
      }
      ++iterations_in_window_;
      maybe_close_window();
      break;
    case dynais::Status::kEndLoop:
      // Structure broke (phase change / non-iterative section): drop the
      // window; detection will re-open one.
      window_open_ = false;
      iterations_in_window_ = 0;
      break;
    case dynais::Status::kNoLoop:
    case dynais::Status::kInLoop:
      break;
  }
}

void EarlSession::on_mpi_calls(std::span<const std::uint32_t> events) {
  for (const auto e : events) on_mpi_call(e);
}

void EarlSession::on_time_tick() {
  EAR_CHECK_MSG(!is_mpi_, "time ticks on an MPI session");
  if (!window_open_) {
    window_start_ = daemon_->snapshot();
    window_open_ = true;
    iterations_in_window_ = 0;
    if (state_ == State::kNoLoop) state_ = State::kNodePolicy;
    return;
  }
  ++iterations_in_window_;
  maybe_close_window();
}

void EarlSession::maybe_close_window() {
  const double interval = is_mpi_ ? settings_.signature_interval_s
                                  : settings_.time_guided_period_s;
  // Written as the negated early return, so a NaN clock (a corrupted
  // snapshot) still closes the window and is rejected there.
  const auto due = [&](double now_s) {
    return !(now_s - window_start_.clock_s < interval) &&
           iterations_in_window_ != 0;
  };
  // An unfiltered snapshot's clock is the node's, so the node clock alone
  // says whether the window is due. A filter draws from its fault stream
  // on every call: a filtered daemon still serves one snapshot per
  // iteration.
  if (!daemon_->filters_snapshots() && !due(daemon_->node().clock().value)) {
    return;
  }
  const metrics::Snapshot now = daemon_->snapshot();
  if (!due(now.clock_s)) return;

  metrics::WindowReject why = metrics::WindowReject::kNone;
  const metrics::Signature sig = metrics::compute_signature(
      window_start_, now, iterations_in_window_, &why);
  window_start_ = now;
  iterations_in_window_ = 0;
  // The daemon may have concluded mid-run that uncore writes no longer
  // stick; swap to the fallback policy before anything else consumes the
  // window (the lock must be noticed even while windows are corrupted).
  if (maybe_degrade()) return;
  if (!sig.valid) {
    note_reject(why == metrics::WindowReject::kNone
                    ? metrics::WindowReject::kNoSignal
                    : why);
    return;
  }
  if (settings_.screening.enabled) {
    if (screen_implausible(sig)) {
      note_reject(metrics::WindowReject::kImplausible);
      return;
    }
    if (signatures_ > 0 && screen_outlier(sig)) {
      ++outlier_streak_;
      if (outlier_streak_ < settings_.screening.reanchor_after) {
        note_reject(metrics::WindowReject::kOutlier);
        return;
      }
      // The "outlier" level has persisted: treat it as the new reality
      // and re-anchor the Fig. 2 state machine on it rather than starve
      // the policy on a genuine phase change.
      outlier_streak_ = 0;
      ++reanchors_;
      policy_->restart();
      state_ = State::kNodePolicy;
      EAR_LOG_INFO("earl",
                   "signature level shifted for good; re-anchoring at "
                   "%.0f W",
                   sig.dc_power_w);
    } else {
      outlier_streak_ = 0;
    }
  }
  last_signature_ = sig;
  ++signatures_;
  process_signature(sig);
}

void EarlSession::note_reject(metrics::WindowReject why) {
  ++rejected_;
  last_reject_ = why;
  EAR_LOG_INFO("earl", "window rejected (%s); %zu rejected so far",
               metrics::to_string(why), rejected_);
}

bool EarlSession::screen_implausible(const metrics::Signature& sig) const {
  const ScreeningSettings& s = settings_.screening;
  return sig.dc_power_w > s.max_power_w ||
         sig.avg_cpu_freq > s.max_plausible_freq ||
         sig.avg_imc_freq > s.max_plausible_freq;
}

bool EarlSession::screen_outlier(const metrics::Signature& sig) const {
  const double factor = settings_.screening.outlier_factor;
  const double ref = last_signature_.dc_power_w;
  if (ref <= 0.0) return false;
  return sig.dc_power_w > ref * factor || sig.dc_power_w < ref / factor;
}

bool EarlSession::maybe_degrade() {
  if (!fallback_factory_ || daemon_->uncore_ok()) return false;
  // The daemon stopped trusting the uncore register (mid-run lock): the
  // eUFS search would steer a window nobody applies. Degrade to the
  // CPU-only fallback policy and restart the state machine on it.
  policy_ = fallback_factory_();
  fallback_factory_ = nullptr;
  ++fallbacks_;
  EAR_LOG_WARN("earl",
               "uncore writes stopped sticking mid-run; degrading to %s",
               policy_->name().c_str());
  daemon_->set_freqs(policy_->default_freqs());
  state_ = State::kNodePolicy;
  return true;
}

void EarlSession::process_signature(const metrics::Signature& sig) {
  // EARD shares the actually-applied P-state and any EARGM limit before
  // the policy runs, so projections anchor on reality even when the
  // cluster manager clamped the last request.
  policy_->sync_constraints(daemon_->current_pstate(),
                            daemon_->pstate_limit());
  // The paper's Code 1 state machine.
  switch (state_) {
    case State::kNoLoop:
      state_ = State::kNodePolicy;
      [[fallthrough]];
    case State::kNodePolicy: {
      policies::NodeFreqs freqs;
      const policies::PolicyState next = policy_->apply(sig, freqs);
      daemon_->set_freqs(freqs);
      if (next == policies::PolicyState::kReady) {
        state_ = State::kValidatePolicy;
      }
      EAR_LOG_DEBUG("earl", "policy %s -> pstate %zu imc_max %s (%s)",
                    policy_->name().c_str(), freqs.cpu_pstate,
                    freqs.imc_max.str().c_str(),
                    next == policies::PolicyState::kReady ? "READY"
                                                          : "CONTINUE");
      break;
    }
    case State::kValidatePolicy: {
      if (!policy_->validate(sig)) {
        EAR_LOG_DEBUG("earl", "validation failed; reverting to defaults");
        policy_->restart();
        daemon_->set_freqs(policy_->default_freqs());
        state_ = State::kNodePolicy;
      }
      break;
    }
  }
}

}  // namespace ear::earl
