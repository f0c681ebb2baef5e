#include "core/iteration_engine.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <utility>

#include "core/engine_observer.hpp"
#include "obs/profiler.hpp"
#include "support/check.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace sea {

namespace {

// A compared check that improves on the previous one by less than this
// relative amount counts toward the stall streak (docs/ROBUSTNESS.md).
constexpr double kStallRtol = 1e-9;
// Damped half-step rung: after a rescue, the row duals move only
// kRecoveryDamping of the way to each sweep's block-optimal point for the
// next kRecoveryDampIters iterations — the safeguarded step that breaks the
// period-2 limit cycles of pure iterative scaling (Aas).
constexpr double kRecoveryDamping = 0.5;
constexpr std::size_t kRecoveryDampIters = 8;

}  // namespace

SeaResult RunIterationEngine(SeaIterationBackend& backend,
                             const SeaOptions& opts) {
  SEA_CHECK_MSG(opts.epsilon > 0.0, "epsilon must be > 0");
  SEA_CHECK_MSG(std::isfinite(opts.epsilon), "epsilon must be finite");
  SEA_CHECK_MSG(opts.check_every >= 1, "check_every must be >= 1");
  SEA_CHECK_MSG(opts.max_iterations > 0, "max_iterations must be >= 1");
  SEA_CHECK_MSG(opts.time_budget_seconds >= 0.0 &&
                    !std::isnan(opts.time_budget_seconds),
                "time_budget_seconds must be >= 0");

  obs::ProfScope prof_solve("engine.solve");
  Stopwatch wall;
  const double cpu0 = ProcessCpuSeconds();

  SeaResult result;
  bool have_snapshot = false;

  // Stall detection state: the previous check's measure and the run of
  // compared checks that failed to improve on their predecessor by at least
  // kStallRtol relatively (docs/ROBUSTNESS.md).
  double stall_prev = std::numeric_limits<double>::infinity();
  std::size_t stall_streak = 0;

  // Recovery-ladder state (docs/ROBUSTNESS.md "Recovery ladder"). The rung
  // only escalates — a rescue that later re-trips does not re-earn the
  // cheaper rungs — so total rescues are bounded by 3 * recovery_retries
  // and iteration count stays monotone (max_iterations still bounds the
  // whole run).
  std::uint8_t rung = 1;
  std::size_t rung_attempts = 0;
  std::size_t damp_left = 0;
  std::vector<double> damp_prev;  // row duals entering a damped sweep
  // Last checkpoint state successfully captured this run; rung 3 restarts
  // from it (falling back to the last-good iterate when no checkpoint
  // writer is attached).
  std::optional<CheckpointState> last_ckpt;

  for (EngineObserver* o : opts.observers) o->OnBegin(opts);
  OpCounts ops_at_last_event;

  // Fills the engine-owned portion of a checkpoint; the backend adds the
  // iterate, fingerprint, and dimensions via CaptureIterate.
  const auto fill_engine_state = [&](CheckpointState& ck) {
    ck.criterion = opts.criterion;
    ck.iteration = result.iterations;
    ck.checks_compared = result.checks_compared;
    ck.final_residual = result.final_residual;
    ck.stall_streak = stall_streak;
    ck.stall_prev = stall_prev;
    ck.have_snapshot = have_snapshot;
    ck.rung = rung;
    ck.rung_attempts = rung_attempts;
    ck.damp_iters_left = damp_left;
    ck.recovered_count = result.recovered_count;
    ck.recovery_rungs = result.recovery_rungs;
    ck.extrapolations_accepted = result.extrapolations_accepted;
    ck.extrapolations_rejected = result.extrapolations_rejected;
  };

  // Captures + writes a checkpoint of the current (post-rebalance) state;
  // returns whether a checkpoint landed.
  const auto write_checkpoint = [&]() {
    CheckpointState ck;
    fill_engine_state(ck);
    if (!backend.CaptureIterate(ck)) return false;
    const bool ok = opts.checkpoint->Write(ck);
    for (EngineObserver* o : opts.observers) o->OnCheckpointWrite(ok);
    if (ok) last_ckpt = std::move(ck);
    return ok;
  };

  // One rescue attempt of the ladder. Returns false when recovery is off,
  // unsupported, or exhausted — the caller then terminates exactly as the
  // pre-ladder engine did. The caller has already restored the last-good
  // iterate where that is the remediation's starting point.
  const auto try_recover = [&](std::size_t t) {
    if (!opts.recover || !backend.SupportsRecovery()) return false;
    if (rung_attempts >= opts.recovery_retries) {
      ++rung;
      rung_attempts = 0;
    }
    if (rung > 3) return false;  // ladder exhausted: give up
    ++rung_attempts;
    switch (rung) {
      case 1:
        // Restore last-good + reset the detector (below); the cheapest
        // remediation, sufficient for transient measure poisoning.
        backend.RestoreGoodIterate();
        break;
      case 2:
        // Safeguarded step: damp the row half-steps for a window of
        // iterations to break a limit cycle (Aas).
        backend.RestoreGoodIterate();
        damp_left = kRecoveryDampIters;
        break;
      case 3:
        // Strongest remediation: rewind to the last durable checkpoint
        // (when one exists), re-gauge the multipliers, and re-approach
        // damped.
        if (last_ckpt.has_value()) {
          backend.RestoreIterate(*last_ckpt);
        } else {
          backend.RestoreGoodIterate();
        }
        backend.ForceRebalance();
        damp_left = kRecoveryDampIters;
        break;
    }
    backend.RestartExtrapolation();
    stall_prev = std::numeric_limits<double>::infinity();
    stall_streak = 0;
    ++result.recovered_count;
    result.recovery_rungs.push_back(rung);
    for (EngineObserver* o : opts.observers)
      o->OnRecovery(t, rung, result.recovered_count);
    return true;
  };

  // Resume (core/checkpoint.hpp): re-seat engine + backend state and
  // continue at the checkpoint's next iteration. With unchanged options the
  // continuation is bit-identical to the uninterrupted run — the captured
  // state is the complete cross-iteration memory of the loop below.
  std::size_t t_begin = 1;
  if (opts.resume != nullptr) {
    const CheckpointState& ck = *opts.resume;
    SEA_CHECK_MSG(backend.RestoreIterate(ck),
                  "resume checkpoint does not fit this problem "
                  "(run ValidateCheckpointFor first)");
    t_begin = static_cast<std::size_t>(ck.iteration) + 1;
    result.iterations = static_cast<std::size_t>(ck.iteration);
    result.checks_compared = static_cast<std::size_t>(ck.checks_compared);
    result.final_residual = ck.final_residual;
    result.recovered_count = ck.recovered_count;
    result.recovery_rungs = ck.recovery_rungs;
    result.extrapolations_accepted = ck.extrapolations_accepted;
    result.extrapolations_rejected = ck.extrapolations_rejected;
    stall_prev = ck.stall_prev;
    stall_streak = static_cast<std::size_t>(ck.stall_streak);
    have_snapshot = ck.have_snapshot;
    rung = ck.rung;
    rung_attempts = static_cast<std::size_t>(ck.rung_attempts);
    damp_left = static_cast<std::size_t>(ck.damp_iters_left);
    for (EngineObserver* o : opts.observers) o->OnResume(ck);
  }

  for (std::size_t t = t_begin; t <= opts.max_iterations; ++t) {
    const bool check_now =
        (t % opts.check_every == 0) || (t == opts.max_iterations);

    // Guardrail polls ride the check schedule, before the sweeps, so an
    // expired budget or a cancelled token stops the solve without paying
    // for another iteration. Both are cooperative: worst-case latency is
    // one check interval.
    if (check_now) {
      if (opts.cancel && opts.cancel->cancelled()) {
        result.status = SolveStatus::kCancelled;
        for (EngineObserver* o : opts.observers)
          o->OnGuardrail(Guardrail::kCancel, t, 0.0);
        break;
      }
      if (opts.time_budget_seconds > 0.0 &&
          wall.Seconds() >= opts.time_budget_seconds) {
        result.status = SolveStatus::kTimeBudgetExceeded;
        for (EngineObserver* o : opts.observers)
          o->OnGuardrail(Guardrail::kBudget, t, wall.Seconds());
        break;
      }
    }

    // ---- Step 1: row equilibration (parallel across the row markets).
    // During a rung-2/3 damping window the row duals move only
    // kRecoveryDamping of the way to the sweep's block-optimal point; the
    // column sweep then computes its duals (and the check iterate) for the
    // blended lambda, so the stopping measure still describes a consistent
    // point.
    const bool damp_now = damp_left > 0;
    if (damp_now) {
      backend.SnapshotRowDuals(damp_prev);
      --damp_left;
    }
    {
      obs::ProfScope prof("engine.row_sweep");
      Stopwatch sw;
      const SweepStats stats = backend.RowSweep();
      if (damp_now) backend.BlendRowDuals(damp_prev, kRecoveryDamping);
      switch (backend.LastExtrapolation()) {
        case Extrapolation::kNone:
          break;
        case Extrapolation::kAccepted:
          ++result.extrapolations_accepted;
          break;
        case Extrapolation::kRejected:
          ++result.extrapolations_rejected;
          break;
      }
      result.ops += stats.total_ops;
      result.order_reuses += stats.order_reuses;
      result.kernel_markets += stats.markets;
      result.row_phase_seconds += sw.Seconds();
    }

    // ---- Step 2: column equilibration (parallel across the column
    // markets); materializes the primal iterate on check iterations.
    {
      obs::ProfScope prof("engine.col_sweep");
      Stopwatch sw;
      const SweepStats stats = backend.ColSweep(check_now);
      result.ops += stats.total_ops;
      result.order_reuses += stats.order_reuses;
      result.kernel_markets += stats.markets;
      result.col_phase_seconds += sw.Seconds();
    }
    if (damp_now) backend.RestartExtrapolation();

    result.iterations = t;
    if (opts.record_dual_values) backend.RecordDualValue(result.dual_values);

    if (!check_now) {
      backend.RebalanceDuals(opts);
      continue;
    }

    // ---- Step 3: convergence verification (the serial phase; Sec. 4.2).
    Stopwatch check_sw;
    double measure = 0.0;
    bool defined = true;
    const StopCriterion criterion = backend.EffectiveCriterion(opts.criterion);
    {
      obs::ProfScope prof("engine.check");
      backend.BeginCheck();
      if (criterion == StopCriterion::kXChange) {
        // Compared across consecutive checks; the first check only
        // snapshots, so its measure is undefined (nothing to compare
        // against) and no comparison flops are charged.
        if (have_snapshot) {
          measure = backend.DiffFromSnapshot();
        } else {
          defined = false;
        }
        backend.SnapshotIterate();
        have_snapshot = true;
      } else {
        measure = backend.ResidualMeasure(criterion);
      }
    }
    result.check_phase_seconds += check_sw.Seconds();

    SEA_FAILPOINT_SITE("sea.engine.poison_measure")
    if (defined && fail::Triggered("sea.engine.poison_measure"))
      measure = std::numeric_limits<double>::quiet_NaN();
    // Pins the measure at the previous check's value — exactly zero
    // improvement — which drives the stall detector deterministically (the
    // CI forensics smoke and fault tests arm this via SEA_FAILPOINTS).
    SEA_FAILPOINT_SITE("sea.engine.freeze_measure")
    if (fail::Triggered("sea.engine.freeze_measure") && defined &&
        std::isfinite(stall_prev))
      measure = stall_prev;

    if (defined && !std::isfinite(measure)) {
      // Numerical breakdown: the iterate went NaN/Inf. Hand back the last
      // iterate that passed a finite check instead of the garbage; the
      // breakdown check itself is not counted or charged (its measure has
      // no value). Under the recovery ladder this becomes a rescue attempt
      // instead of a terminal status.
      for (EngineObserver* o : opts.observers)
        o->OnGuardrail(Guardrail::kBreakdown, t, measure);
      backend.RestoreGoodIterate();
      if (!try_recover(t)) result.status = SolveStatus::kNumericalBreakdown;
    } else if (defined) {
      ++result.checks_compared;
      result.final_residual = measure;
      result.ops.flops += backend.CheckCost();
      bool stalled_now = false;
      if (measure <= opts.epsilon) {
        result.status = SolveStatus::kConverged;
      } else if (measure < stall_prev * (1.0 - kStallRtol)) {
        // Compare with the PREVIOUS check, not the best-so-far: a transient
        // rise (common before the contraction regime sets in) would park a
        // best-so-far low-water mark that a genuinely progressing run can
        // take arbitrarily many checks to re-cross.
        stall_streak = 0;
      } else if (opts.stall_checks > 0 &&
                 ++stall_streak >= opts.stall_checks) {
        stalled_now = true;
        for (EngineObserver* o : opts.observers)
          o->OnGuardrail(Guardrail::kStall, t, measure);
      }
      stall_prev = measure;
      backend.SaveGoodIterate();
      // A stall trip recovers after the good-iterate bookkeeping: the
      // stalled-but-finite iterate IS the restart point, and the rescue
      // resets the detector (stall_prev back to +inf).
      if (stalled_now && !try_recover(t))
        result.status = SolveStatus::kStalled;
      // Per-market attribution rides the check schedule: the backend
      // commits per-row-market contributions under the residual form of
      // the active criterion (kXChange attributes the absolute residual of
      // the same materialized iterate).
      if (opts.attribution && std::isfinite(measure))
        backend.AttributeResidual(criterion == StopCriterion::kXChange
                                      ? StopCriterion::kResidualAbs
                                      : criterion,
                                  t, measure);
    }

    if (!opts.observers.empty()) {  // pay-for-use: a plain solve builds none
      IterationEvent ev;
      ev.iteration = t;
      ev.measure_defined = defined;
      ev.measure = measure;
      ev.converged = result.converged();
      ev.checks_compared = result.checks_compared;
      ev.row_phase_seconds = result.row_phase_seconds;
      ev.col_phase_seconds = result.col_phase_seconds;
      ev.check_phase_seconds = result.check_phase_seconds;
      ev.ops_total = result.ops;
      ev.ops_delta = result.ops - ops_at_last_event;
      ops_at_last_event = result.ops;
      for (EngineObserver* o : opts.observers) o->OnCheck(ev);
    }

    // Any terminal condition (convergence, breakdown, stall) has replaced
    // the default kMaxIterations status by now.
    if (result.status != SolveStatus::kMaxIterations) break;
    backend.RebalanceDuals(opts);

    // Checkpoint at the end of cadence-eligible compared checks — after
    // the rebalance, so the captured state is exactly what iteration t+1
    // starts from. Breakdown checks never checkpoint (the measure carried
    // no value; nothing marks this state as trustworthy).
    if (opts.checkpoint != nullptr && defined && std::isfinite(measure) &&
        opts.checkpoint->ShouldWrite()) {
      const bool wrote = write_checkpoint();
      // Crash-injection point for the CI crash-resume smoke: die AFTER a
      // checkpoint landed, so the restart proves the durability story
      // end-to-end.
      SEA_FAILPOINT_SITE("sea.engine.crash_after_checkpoint")
      if (wrote && fail::Triggered("sea.engine.crash_after_checkpoint"))
        std::abort();
    }
  }

  result.wall_seconds = wall.Seconds();
  result.cpu_seconds = ProcessCpuSeconds() - cpu0;

  // Final checkpoint on the interruptible exits: cancellation (how SIGTERM
  // arrives), budget expiry, and the iteration cap all leave a resumable
  // state behind — the interrupted work is not lost. Terminal guardrail
  // failures do not checkpoint (their iterate is the problem), and
  // convergence needs no resume.
  if (opts.checkpoint != nullptr && result.iterations > 0 &&
      (result.status == SolveStatus::kCancelled ||
       result.status == SolveStatus::kTimeBudgetExceeded ||
       result.status == SolveStatus::kMaxIterations))
    write_checkpoint();

  for (EngineObserver* o : opts.observers) o->OnEnd(result);
  return result;
}

}  // namespace sea
