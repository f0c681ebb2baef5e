// The shared SEA iteration engine (paper Section 3.1, Figures 2 and 3).
//
// Every SEA variant — dense diagonal, sparse, entropy/RAS, and entropy SAM
// balancing — runs the same outer loop: a row half-step, a column half-step,
// check-every scheduling of the serial convergence-verification phase,
// stopping-measure evaluation, optional multiplier rebalancing (the paper's
// Modified Algorithm), dual-value recording, per-phase stopwatches, operation
// accounting, execution-trace recording, and wall/CPU totals. The engine
// owns all of that once; a variant supplies only its sweep kernels and
// check primitives through the SeaIterationBackend interface below.
//
// Engine phase -> paper step mapping:
//   RowSweep        Step 1, row equilibration   (parallel over m markets)
//   ColSweep        Step 2, column equilibration (parallel over n markets)
//   check phase     Step 3, convergence verification (serial; Section 4.2)
//   RebalanceDuals  the Modified Algorithm's gauge shift (Section 3.1)
//
// The engine is also the instrumentation point: it emits one event stream
// (core/engine_observer.hpp) — an IterationEvent per check with the
// residual trajectory, phase times, and op deltas, plus begin, guardrail,
// recovery, checkpoint, and end events — to SeaOptions::observers. No
// observers, no cost. Acceleration is the backend's business: the shared
// sweep core (core/sweep_backend.hpp) Anderson-extrapolates elastic solves'
// column duals under a dual-ascent safeguard (core/extrapolation.hpp), and
// the engine only restarts its window and tallies its outcomes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/options.hpp"
#include "core/result.hpp"
#include "equilibration/equilibrator.hpp"

namespace sea {

// What a variant must provide to run on the engine. One instance drives one
// solve; backends hold references to the problem and the dual iterates.
// What a row sweep did with extrapolation (core/extrapolation.hpp).
enum class Extrapolation : std::uint8_t { kNone, kAccepted, kRejected };

class SeaIterationBackend {
 public:
  virtual ~SeaIterationBackend() = default;

  // Step 1: the row half-step. Returns the sweep's operation counts and
  // (when tracing) per-market task costs.
  virtual SweepStats RowSweep() = 0;

  // Whether the last RowSweep ran against an extrapolated point, and if so
  // whether the safeguard kept it (SeaResult::extrapolations_*).
  virtual Extrapolation LastExtrapolation() const {
    return Extrapolation::kNone;
  }

  // Drops any extrapolation history. The engine calls it on every
  // recovery-ladder rung and after each damped iteration: a damped step is
  // not the sweep map, so no window may span one.
  virtual void RestartExtrapolation() {}

  // Step 2: the column half-step. When materialize is true the engine will
  // evaluate the stopping measure afterwards, so the backend must make the
  // primal iterate available to the check primitives below.
  virtual SweepStats ColSweep(bool materialize) = 0;

  // Called at the start of every check phase, before the measure is
  // evaluated (e.g. the entropy backends materialize x here, since their
  // sweeps never form the primal).
  virtual void BeginCheck() {}

  // Lets a backend override the requested criterion (entropy SAM balancing
  // has a single native measure — the relative account imbalance).
  virtual StopCriterion EffectiveCriterion(StopCriterion c) const {
    return c;
  }

  // Residual-style stopping measure of the materialized iterate
  // (c is kResidualAbs or kResidualRel; see core/stopping.hpp).
  virtual double ResidualMeasure(StopCriterion c) = 0;

  // kXChange support: max |x - x_snapshot| against the last snapshot, and
  // snapshotting the current iterate. The engine guarantees DiffFromSnapshot
  // is only called after at least one SnapshotIterate.
  virtual double DiffFromSnapshot() = 0;
  virtual void SnapshotIterate() = 0;

  // Flops charged per evaluated stopping measure (the serial check phase's
  // cost: 2mn dense, 2nnz sparse, ...). Only charged when the measure had a
  // defined value — no comparison, no charge.
  virtual std::uint64_t CheckCost() const = 0;

  // Breakdown recovery (docs/ROBUSTNESS.md): the engine calls
  // SaveGoodIterate after every check whose measure was finite, and
  // RestoreGoodIterate once if a later check observes a non-finite measure —
  // so a NaN-poisoned run still hands back a usable point. Saving should be
  // O(m + n) (capture the dual iterates, not the primal). Default: no-op;
  // such a backend returns whatever state it holds at breakdown.
  virtual void SaveGoodIterate() {}
  virtual void RestoreGoodIterate() {}

  // The Modified Algorithm's gauge rebalance of the dual iterates; invoked
  // after every iteration that did not converge. Default: no modification.
  virtual void RebalanceDuals(const SeaOptions& opts) { (void)opts; }

  // Appends the dual value at the current iterates (invoked once per
  // iteration when SeaOptions::record_dual_values is set). Default: the
  // backend records nothing.
  virtual void RecordDualValue(std::vector<double>& out) { (void)out; }

  // --- Durability hooks (core/checkpoint.hpp; docs/ROBUSTNESS.md). ---
  // Fills the iterate portion of a checkpoint: dual multipliers, the
  // kXChange previous-check snapshot (in whatever flat layout the backend
  // uses — RestoreIterate is its only consumer), the problem fingerprint,
  // and the dimensions. Returning false means the variant does not
  // checkpoint (the engine then skips writes entirely).
  virtual bool CaptureIterate(CheckpointState& out) {
    (void)out;
    return false;
  }
  // Restores exactly what CaptureIterate saved, and re-seats the last-good
  // iterate to the restored duals. Returns false when the state does not
  // fit this problem (wrong lengths); the engine treats that as a usage
  // error.
  virtual bool RestoreIterate(const CheckpointState& in) {
    (void)in;
    return false;
  }

  // --- Recovery-ladder hooks (docs/ROBUSTNESS.md "Recovery ladder"). ---
  // Whether the variant supports the ladder at all; when false, guardrail
  // trips terminate exactly as before even under SeaOptions::recover.
  virtual bool SupportsRecovery() const { return false; }
  // Copies the current row duals out / blends them back:
  // lambda <- prev + keep * (lambda - prev), elementwise. The engine calls
  // Snapshot before and Blend after RowSweep during a damping window, so
  // the subsequent ColSweep computes the column duals (and the check
  // iterate) consistently for the damped lambda.
  virtual void SnapshotRowDuals(std::vector<double>& out) const {
    (void)out;
  }
  virtual void BlendRowDuals(const std::vector<double>& prev, double keep) {
    (void)prev;
    (void)keep;
  }
  // Rung-3 remediation: gauge-rebalance the multipliers unconditionally
  // (no SeaOptions::multiplier_bound gate). No-op where the regime has no
  // gauge freedom.
  virtual void ForceRebalance() {}

  // Per-market attribution (obs/market_stats.hpp): writes ROW market i's
  // residual contribution of the materialized check iterate — the term
  // |rowsum_i - target_i| that FoldRowResidual folds into the measure under
  // criterion c — into SeaOptions::attribution's residual_scratch()[i], and
  // commits the check with their index-ascending sum, so the export
  // re-sums bit-identically. Column markets contribute zero by
  // construction (the column half-step satisfies them) and are not
  // represented. Called at check iterations with a finite measure, after
  // ResidualMeasure / DiffFromSnapshot, when a table is attached.
  virtual void AttributeResidual(StopCriterion /*c*/, std::size_t /*t*/,
                                 double /*measure*/) {}
};

// Runs the t-loop on the backend and returns the filled result (everything
// except the primal recovery and objective, which remain variant-specific).
SeaResult RunIterationEngine(SeaIterationBackend& backend,
                             const SeaOptions& opts);

}  // namespace sea
