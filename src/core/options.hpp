// Solver configuration.
#pragma once

#include <cstddef>
#include <vector>

#include "support/cancel.hpp"

namespace sea {

class ThreadPool;
class CheckpointWriter;
class EngineObserver;
struct CheckpointState;

namespace obs {
class MarketAttribution;
}  // namespace obs

// Stopping rules used in the paper's experiments.
enum class StopCriterion {
  // max_ij |x^t_ij - x^{t-1}_ij| <= epsilon (paper Step 3, Section 3.1.1;
  // Table 1/5 runs with epsilon = .01). Compared across consecutive checks.
  kXChange,
  // max_i |sum_j x_ij - s_i| <= epsilon (absolute constraint residual; by
  // eq. (27) equivalent to the dual gradient norm).
  kResidualAbs,
  // max_i |sum_j x_ij - s_i| / max(1, |s_i|) <= epsilon (paper Step 3,
  // Section 3.1.2; Table 3 runs with epsilon = .001).
  kResidualRel,
};

const char* ToString(StopCriterion c);

struct SeaOptions {
  double epsilon = 1e-2;
  StopCriterion criterion = StopCriterion::kResidualRel;
  std::size_t max_iterations = 200000;
  // Verify convergence only every k-th iteration. The paper checks every
  // iteration for the fixed examples and every other iteration for the
  // elastic ones (Section 4.2) — the check is the serial phase, so spacing
  // it improves parallel efficiency.
  std::size_t check_every = 1;
  // Optional shared-memory pool for the row/column sweeps; null = serial.
  // Workers claim chunks of markets dynamically (docs/PARALLELISM.md);
  // results are bit-identical at every thread count.
  ThreadPool* pool = nullptr;
  // Record the dual value zeta_l(lambda, mu) after every iteration (used by
  // the convergence-theory tests; costs one O(mn) pass per iteration).
  bool record_dual_values = false;
  // The paper's "Modified Algorithm" (Section 3.1): when positive, and the
  // regime is kFixed or kSam, multipliers are rebalanced across support-graph
  // connected components whenever some |lambda_i| exceeds this bound —
  // keeping the dual iterates in a bounded set without changing the primal
  // trajectory. 0 disables the modification.
  double multiplier_bound = 0.0;
  // Guardrails (docs/ROBUSTNESS.md). The wall-clock budget for the whole
  // solve; 0 = unlimited. Polled at check iterations, so overshoot is at
  // most one check interval; on expiry the result carries
  // SolveStatus::kTimeBudgetExceeded and the best iterate so far.
  double time_budget_seconds = 0.0;
  // Cooperative cancellation, polled at check iterations (never inside a
  // parallel sweep). Null = not cancellable.
  CancelToken* cancel = nullptr;
  // Stall detector: terminate with SolveStatus::kStalled when the stopping
  // measure fails to improve on the PREVIOUS check by a relative 1e-9
  // (core/iteration_engine.cpp) over stall_checks consecutive compared
  // checks — the signature of a scaling iteration pinned at a non-solution
  // fixed point (infeasible support). Check-to-check comparison (rather
  // than best-so-far) keeps a transient residual rise from parking an
  // unreachable low-water mark. stall_checks = 0 disables the detector.
  std::size_t stall_checks = 50;
  // Telemetry (core/engine_observer.hpp): each observer receives the
  // engine's events in list order. Not owned; each must outlive the solve.
  // Empty = no telemetry overhead.
  std::vector<EngineObserver*> observers;
  // Per-market attribution table (obs/market_stats.hpp): the sweeps record
  // per-market solve tallies, and the backend sizes the table and commits
  // residual contributions + active-set churn at every check whose measure
  // is finite. Null = no attribution overhead (the sweeps pay
  // one branch per market). Exported via sea_solve --attribution-json and
  // summarized by tools/market_report.
  obs::MarketAttribution* attribution = nullptr;
  // Durability + self-healing (core/checkpoint.hpp; docs/ROBUSTNESS.md).
  // Checkpoint writer: the engine captures the full resume state (dual
  // iterate, kXChange snapshot, stall-detector + recovery-ladder state) at
  // the end of every cadence-eligible compared check — after the rebalance,
  // so resume continues at exactly the next iteration — and also when the
  // solve ends in kCancelled / kTimeBudgetExceeded / kMaxIterations. Null =
  // no checkpointing.
  CheckpointWriter* checkpoint = nullptr;
  // Resume state: restored into the engine and backend before iteration
  // resume->iteration + 1 runs; the continued run is bit-identical to the
  // uninterrupted one. Callers should gate on ValidateCheckpointFor first
  // (the engine only size-checks). Null = start from scratch.
  const CheckpointState* resume = nullptr;
  // Recovery ladder: when true, a stall or breakdown trip walks escalating
  // remediation — restore last-good iterate, then a damped half-step
  // window, then multiplier rebalance + restart from the last checkpoint —
  // instead of terminating, with recovery_retries rescue attempts per rung
  // before escalating; only after the ladder is exhausted does the solve
  // end with the historical kStalled / kNumericalBreakdown (and
  // postmortem). Requires backend support (dense + sparse; the entropy
  // variants terminate as before). Provenance lands on
  // SeaResult::recovered_count / recovery_rungs.
  bool recover = false;
  std::size_t recovery_retries = 2;
};

struct GeneralSeaOptions {
  // Outer (projection-method) tolerance on max |x^t - x^{t-1}|.
  double outer_epsilon = 1e-3;
  std::size_t max_outer_iterations = 500;
  // Inner diagonal-SEA settings. The inner stopping rule is residual-based;
  // inner_epsilon is tightened relative to outer_epsilon if left at 0.
  SeaOptions inner;
  double inner_epsilon = 0.0;  // 0 = derive from outer_epsilon
};

}  // namespace sea
