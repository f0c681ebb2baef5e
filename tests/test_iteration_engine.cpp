// Engine-level tests against a scripted backend: check-every scheduling,
// stopping semantics (including the kXChange first-check fix), op
// accounting, rebalance cadence, and the progress callback contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/engine_observer.hpp"
#include "core/iteration_engine.hpp"
#include "support/cancel.hpp"

namespace sea {
namespace {

// Backend that records every engine call and returns scripted measures.
class ScriptedBackend : public SeaIterationBackend {
 public:
  // residuals / diffs are consumed one per measure evaluation; the last
  // value repeats once exhausted.
  std::vector<double> residuals{1.0};
  std::vector<double> diffs{1.0};

  std::size_t row_sweeps = 0;
  std::size_t col_sweeps = 0;
  std::vector<std::size_t> materialized_at;  // col-sweep ordinals
  std::vector<std::size_t> checks_at;        // iteration == col_sweeps
  std::size_t snapshots = 0;
  std::size_t diff_calls = 0;
  std::size_t rebalances = 0;
  std::size_t dual_records = 0;

  SweepStats RowSweep() override {
    ++row_sweeps;
    SweepStats s;
    s.total_ops.flops = 10;
    return s;
  }

  SweepStats ColSweep(bool materialize) override {
    ++col_sweeps;
    if (materialize) materialized_at.push_back(col_sweeps);
    SweepStats s;
    s.total_ops.flops = 20;
    return s;
  }

  void BeginCheck() override { checks_at.push_back(col_sweeps); }

  double ResidualMeasure(StopCriterion) override {
    return Next(residuals, residual_idx_);
  }

  double DiffFromSnapshot() override {
    ++diff_calls;
    return Next(diffs, diff_idx_);
  }

  void SnapshotIterate() override { ++snapshots; }

  std::uint64_t CheckCost() const override { return 100; }

  void RebalanceDuals(const SeaOptions&) override { ++rebalances; }

  void RecordDualValue(std::vector<double>& out) override {
    ++dual_records;
    out.push_back(static_cast<double>(dual_records));
  }

 private:
  static double Next(const std::vector<double>& seq, std::size_t& idx) {
    const double v = seq[std::min(idx, seq.size() - 1)];
    ++idx;
    return v;
  }
  std::size_t residual_idx_ = 0;
  std::size_t diff_idx_ = 0;
};

SeaOptions BaseOptions() {
  SeaOptions o;
  o.epsilon = 1e-6;
  o.criterion = StopCriterion::kResidualAbs;
  return o;
}

TEST(IterationEngine, ChecksFollowCheckEverySchedule) {
  ScriptedBackend b;  // residual stays 1.0: never converges
  SeaOptions o = BaseOptions();
  o.max_iterations = 10;
  o.check_every = 3;
  const SeaResult r = RunIterationEngine(b, o);

  EXPECT_FALSE(r.converged());
  EXPECT_EQ(r.iterations, 10u);
  EXPECT_EQ(b.row_sweeps, 10u);
  EXPECT_EQ(b.col_sweeps, 10u);
  // Checks at multiples of 3 plus the final iteration.
  const std::vector<std::size_t> expected{3, 6, 9, 10};
  EXPECT_EQ(b.checks_at, expected);
  EXPECT_EQ(b.materialized_at, expected);
  EXPECT_EQ(r.checks_compared, 4u);
  // 10 sweeps of (10 + 20) flops plus 4 evaluated checks of 100.
  EXPECT_EQ(r.ops.flops, 10u * 30u + 4u * 100u);
}

TEST(IterationEngine, StopsOnConvergedMeasure) {
  ScriptedBackend b;
  b.residuals = {1.0, 1e-9};
  SeaOptions o = BaseOptions();
  const SeaResult r = RunIterationEngine(b, o);
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_EQ(r.final_residual, 1e-9);
}

TEST(IterationEngine, CallbackFiresOnCheckIterationsOnly) {
  ScriptedBackend b;
  SeaOptions o = BaseOptions();
  o.max_iterations = 10;
  o.check_every = 3;
  std::vector<std::size_t> fired;
  CheckObserver progress([&](const IterationEvent& ev) {
    fired.push_back(ev.iteration);
    EXPECT_TRUE(ev.measure_defined);
    EXPECT_EQ(ev.measure, 1.0);
    EXPECT_FALSE(ev.converged);
  });
  o.observers.push_back(&progress);
  RunIterationEngine(b, o);
  EXPECT_EQ(fired, (std::vector<std::size_t>{3, 6, 9, 10}));
}

TEST(IterationEngine, XChangeFirstCheckIsUndefined) {
  // One iteration, one check: nothing to compare against yet. The measure
  // must be reported as not-yet-defined and no comparison flops charged.
  ScriptedBackend b;
  SeaOptions o = BaseOptions();
  o.criterion = StopCriterion::kXChange;
  o.max_iterations = 1;
  std::vector<IterationEvent> events;
  CheckObserver progress(
      [&](const IterationEvent& ev) { events.push_back(ev); });
  o.observers.push_back(&progress);
  const SeaResult r = RunIterationEngine(b, o);

  EXPECT_FALSE(r.converged());
  EXPECT_EQ(r.checks_compared, 0u);
  EXPECT_EQ(r.final_residual, 0.0);
  EXPECT_EQ(b.snapshots, 1u);
  EXPECT_EQ(b.diff_calls, 0u);
  EXPECT_EQ(r.ops.flops, 30u);  // sweeps only; no check cost
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].measure_defined);
}

TEST(IterationEngine, XChangeComparesAcrossConsecutiveChecks) {
  ScriptedBackend b;
  b.diffs = {1e-9};
  SeaOptions o = BaseOptions();
  o.criterion = StopCriterion::kXChange;
  o.max_iterations = 5;
  const SeaResult r = RunIterationEngine(b, o);
  // First check snapshots, second compares and converges.
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_EQ(r.checks_compared, 1u);
  EXPECT_EQ(b.snapshots, 2u);
  EXPECT_EQ(b.diff_calls, 1u);
}

TEST(IterationEngine, RebalanceRunsAfterEveryNonConvergedIteration) {
  ScriptedBackend b;
  SeaOptions o = BaseOptions();
  o.max_iterations = 4;
  o.check_every = 2;
  RunIterationEngine(b, o);
  // t=1 (skipped check), t=2 (check, not converged), t=3, t=4: all rebalance.
  EXPECT_EQ(b.rebalances, 4u);

  ScriptedBackend b2;
  b2.residuals = {1e-9};
  SeaOptions o2 = BaseOptions();
  o2.max_iterations = 4;
  RunIterationEngine(b2, o2);
  EXPECT_EQ(b2.rebalances, 0u);  // converged on the first check
}

TEST(IterationEngine, DualValuesFollowOptions) {
  ScriptedBackend b;
  SeaOptions o = BaseOptions();
  o.max_iterations = 3;
  o.check_every = 2;
  o.record_dual_values = true;
  const SeaResult r = RunIterationEngine(b, o);

  EXPECT_EQ(b.dual_records, 3u);
  EXPECT_EQ(r.dual_values.size(), 3u);
}

// ---------------------------------------------------------------------------
// Guardrails (docs/ROBUSTNESS.md): option validation, budgets, cancellation,
// stall detection, and breakdown recovery at the engine level.

TEST(IterationEngine, RejectsInvalidOptions) {
  ScriptedBackend b;
  SeaOptions o = BaseOptions();
  o.epsilon = 0.0;
  EXPECT_THROW(RunIterationEngine(b, o), InvalidArgument);
  o = BaseOptions();
  o.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RunIterationEngine(b, o), InvalidArgument);
  o = BaseOptions();
  o.check_every = 0;
  EXPECT_THROW(RunIterationEngine(b, o), InvalidArgument);
  o = BaseOptions();
  o.max_iterations = 0;
  EXPECT_THROW(RunIterationEngine(b, o), InvalidArgument);
  o = BaseOptions();
  o.time_budget_seconds = -1.0;
  EXPECT_THROW(RunIterationEngine(b, o), InvalidArgument);
  // Rejection happens before any work is done.
  EXPECT_EQ(b.row_sweeps, 0u);
}

TEST(IterationEngine, StatusDistinguishesConvergedFromMaxIterations) {
  ScriptedBackend a;
  a.residuals = {1e-9};
  EXPECT_EQ(RunIterationEngine(a, BaseOptions()).status,
            SolveStatus::kConverged);

  ScriptedBackend b;  // residual pinned at 1.0
  SeaOptions o = BaseOptions();
  o.max_iterations = 3;
  const SeaResult r = RunIterationEngine(b, o);
  EXPECT_EQ(r.status, SolveStatus::kMaxIterations);
  EXPECT_FALSE(r.converged());
}

TEST(IterationEngine, CancellationObservedAtCheckIterations) {
  ScriptedBackend b;
  CancelToken cancel;
  SeaOptions o = BaseOptions();
  o.max_iterations = 100;
  o.check_every = 5;
  o.cancel = &cancel;
  CheckObserver progress([&](const IterationEvent& ev) {
    if (ev.iteration == 5) cancel.Cancel();
  });
  o.observers.push_back(&progress);
  const SeaResult r = RunIterationEngine(b, o);
  EXPECT_EQ(r.status, SolveStatus::kCancelled);
  // Cancelled at the next poll (iteration 10), before that check's sweeps:
  // iterations 6-9 still ran, iteration 10 never started.
  EXPECT_EQ(r.iterations, 9u);
  EXPECT_EQ(b.row_sweeps, 9u);
}

TEST(IterationEngine, StallWhenMeasureStopsImproving) {
  ScriptedBackend b;  // residual pinned at 1.0: zero relative improvement
  SeaOptions o = BaseOptions();
  o.max_iterations = 1000;
  o.stall_checks = 4;
  const SeaResult r = RunIterationEngine(b, o);
  EXPECT_EQ(r.status, SolveStatus::kStalled);
  // First check seeds stall_prev; the next 4 flat checks trip the detector.
  EXPECT_EQ(r.iterations, 5u);
}

TEST(IterationEngine, ImprovingRunNeverStalls) {
  // Geometric decay: every check improves by far more than the stall
  // detector's relative 1e-9.
  ScriptedBackend b;
  b.residuals.clear();
  for (int k = 0; k < 40; ++k) b.residuals.push_back(std::pow(0.9, k));
  SeaOptions o = BaseOptions();
  o.epsilon = 1e-30;  // unreachable: run the full script
  o.max_iterations = 30;
  o.stall_checks = 3;
  const SeaResult r = RunIterationEngine(b, o);
  EXPECT_EQ(r.status, SolveStatus::kMaxIterations);
}

TEST(IterationEngine, StallDetectorDisabledByZeroChecks) {
  ScriptedBackend b;
  SeaOptions o = BaseOptions();
  o.max_iterations = 200;
  o.stall_checks = 0;
  const SeaResult r = RunIterationEngine(b, o);
  EXPECT_EQ(r.status, SolveStatus::kMaxIterations);
  EXPECT_EQ(r.iterations, 200u);
}

TEST(IterationEngine, NonFiniteMeasureRestoresLastGoodIterate) {
  class RecordingBackend : public ScriptedBackend {
   public:
    std::size_t saves = 0, restores = 0;
    void SaveGoodIterate() override { ++saves; }
    void RestoreGoodIterate() override { ++restores; }
  } b;
  b.residuals = {1.0, 0.5, std::numeric_limits<double>::quiet_NaN()};
  SeaOptions o = BaseOptions();
  o.max_iterations = 100;
  const SeaResult r = RunIterationEngine(b, o);
  EXPECT_EQ(r.status, SolveStatus::kNumericalBreakdown);
  EXPECT_EQ(r.iterations, 3u);
  EXPECT_EQ(b.saves, 2u);     // the two finite checks
  EXPECT_EQ(b.restores, 1u);  // rolled back once at the NaN
  // The poisoned check is not counted as a comparison.
  EXPECT_EQ(r.checks_compared, 2u);
}

TEST(IterationEngine, TimeBudgetReportsDistinctStatus) {
  ScriptedBackend b;
  SeaOptions o = BaseOptions();
  o.max_iterations = 1000000;
  o.time_budget_seconds = 1e-12;
  const SeaResult r = RunIterationEngine(b, o);
  EXPECT_EQ(r.status, SolveStatus::kTimeBudgetExceeded);
  EXPECT_FALSE(r.converged());
}

}  // namespace
}  // namespace sea
