// Fault-injection suite (ctest label: faults; docs/ROBUSTNESS.md).
//
// Every recovery branch of the guardrail layer is forced through its
// failure via the failpoint registry (support/failpoint.hpp) and verified
// to degrade as documented: a poisoned iterate comes back finite with
// kNumericalBreakdown, a throwing pool chunk surfaces on the submitting
// thread without killing the pool, a failed trace write loses the trace but
// never the solve, and budget/cancellation terminate with their statuses.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "core/engine_observer.hpp"
#include "core/solve_status.hpp"
#include "entropy/entropy_sea.hpp"
#include "obs/metrics.hpp"
#include "obs/solve_log.hpp"
#include "obs/status_file.hpp"
#include "obs/trace_reader.hpp"
#include "obs/trace_sink.hpp"
#include "parallel/thread_pool.hpp"
#include "support/atomic_file.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"

namespace sea {
namespace {

// DisarmAll on both sides so a failing test can't leak an armed failpoint
// into the rest of the binary.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisarmAll(); }
  void TearDown() override { fail::DisarmAll(); }
};

DiagonalProblem SmallFixedProblem() {
  // Non-uniform weights: with uniform gamma this problem solves exactly in
  // one iteration, which would starve later-check failpoints of checks.
  DenseMatrix x0(3, 3), gamma(3, 3);
  double v = 1.0;
  for (double& c : x0.Flat()) c = v++;
  v = 0.0;
  for (double& c : gamma.Flat()) {
    c = 0.5 + 0.37 * (v * (v + 1.0) / 9.0);
    v += 1.0;
  }
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& t : s0) t *= 1.3;
  for (double& t : d0) t *= 1.3;
  return DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
}

SeaOptions TightOptions() {
  SeaOptions o;
  // Tight enough that no test instance converges within the first few
  // checks — the poison failpoints must fire before convergence.
  o.epsilon = 1e-12;
  o.criterion = StopCriterion::kResidualAbs;
  return o;
}

bool AllFinite(const DenseMatrix& m) {
  for (double v : m.Flat())
    if (!std::isfinite(v)) return false;
  return true;
}

bool AllFinite(const Vector& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Failpoint registry mechanics.

TEST_F(FaultTest, FailpointFiresFromArmedHitOnward) {
  fail::Arm("test.site", 3);
  EXPECT_FALSE(fail::Triggered("test.site"));
  EXPECT_FALSE(fail::Triggered("test.site"));
  EXPECT_TRUE(fail::Triggered("test.site"));
  EXPECT_TRUE(fail::Triggered("test.site"));
  EXPECT_EQ(fail::HitCount("test.site"), 4u);
  fail::Disarm("test.site");
  EXPECT_FALSE(fail::Triggered("test.site"));
  EXPECT_EQ(fail::HitCount("test.site"), 0u);
}

TEST_F(FaultTest, DisarmedSitesCostOnlyTheFastPath) {
  // Nothing armed: Triggered must neither fire nor record hits.
  EXPECT_FALSE(fail::Triggered("never.armed"));
  EXPECT_EQ(fail::HitCount("never.armed"), 0u);
}

// ---------------------------------------------------------------------------
// Numerical breakdown: poisoned measure in the engine.

TEST_F(FaultTest, PoisonedMeasureReturnsLastGoodIterate) {
  const auto p = SmallFixedProblem();
  SeaOptions o = TightOptions();
  // Let two checks pass so a good iterate exists, then poison the third.
  fail::Arm("sea.engine.poison_measure", 3);
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kNumericalBreakdown);
  EXPECT_FALSE(run.result.converged());
  EXPECT_TRUE(AllFinite(run.solution.x));
  EXPECT_TRUE(AllFinite(run.solution.lambda));
  EXPECT_TRUE(AllFinite(run.solution.mu));
  // Only the two clean checks were counted; the poisoned one has no value.
  EXPECT_EQ(run.result.checks_compared, 2u);
}

TEST_F(FaultTest, PoisonOnFirstCheckStillReturnsFiniteIterate) {
  const auto p = SmallFixedProblem();
  fail::Arm("sea.engine.poison_measure", 1);
  const auto run = SolveDiagonal(p, TightOptions());
  EXPECT_EQ(run.result.status, SolveStatus::kNumericalBreakdown);
  // No check ever passed: the backend falls back to the zero duals, which
  // still recover a finite primal.
  EXPECT_TRUE(AllFinite(run.solution.x));
  EXPECT_EQ(run.result.checks_compared, 0u);
}

TEST_F(FaultTest, PoisonedEntropyLambdaDegradesToBreakdown) {
  // 4x4 with skewed totals so the scaling iteration needs several passes.
  EntropyProblem p;
  p.x0 = DenseMatrix(4, 4);
  double v = 1.0;
  for (double& c : p.x0.Flat()) c = v++ * 0.7;
  p.s0 = p.x0.RowSums();
  p.d0 = p.x0.ColSums();
  p.s0[0] *= 2.0;
  p.s0[3] *= 0.6;
  const double scale =
      (p.d0[0] + p.d0[1] + p.d0[2] + p.d0[3]) /
      (p.s0[0] + p.s0[1] + p.s0[2] + p.s0[3]);
  for (double& t : p.s0) t *= scale;
  SeaOptions o = TightOptions();
  // Poison the 2nd row sweep: the first check has saved a good iterate.
  fail::Arm("sea.entropy.poison_lambda", 2);
  const auto run = SolveEntropy(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kNumericalBreakdown);
  EXPECT_TRUE(AllFinite(run.x));
  EXPECT_TRUE(AllFinite(run.lambda));
  EXPECT_TRUE(AllFinite(run.mu));
}

// ---------------------------------------------------------------------------
// Thread pool: a throwing chunk surfaces once, the pool survives.

TEST_F(FaultTest, PoolTaskThrowReachesSubmittingThread) {
  ThreadPool pool(4);
  fail::Arm("sea.pool.task");
  EXPECT_THROW(pool.ParallelFor(100, [](std::size_t, std::size_t) {}),
               std::runtime_error);
}

TEST_F(FaultTest, PoolStaysUsableAfterChunkThrow) {
  ThreadPool pool(4);
  fail::Arm("sea.pool.task");
  EXPECT_THROW(pool.ParallelFor(100, [](std::size_t, std::size_t) {}),
               std::runtime_error);
  fail::DisarmAll();
  // The join protocol survived the throw: the same pool must run a full
  // region correctly afterwards.
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(FaultTest, InlinePoolSharesTheExceptionContract) {
  ThreadPool pool(1);
  fail::Arm("sea.pool.task");
  EXPECT_THROW(pool.ParallelFor(10, [](std::size_t, std::size_t) {}),
               std::runtime_error);
  fail::DisarmAll();
  int sum = 0;
  pool.ParallelFor(10, [&](std::size_t b, std::size_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum, 10);
}

// ---------------------------------------------------------------------------
// Trace sink: a failed write degrades the trace, never the solve.

TEST_F(FaultTest, TraceWriteFailureDoesNotAbortSolve) {
  const auto p = SmallFixedProblem();
  const std::string path =
      ::testing::TempDir() + "/fault_trace.jsonl";
  obs::JsonlTraceSink sink(path);
  SeaOptions o = TightOptions();
  o.observers.push_back(&sink);
  fail::Arm("sea.obs.trace_write", 2);  // first event lands, second fails
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_TRUE(sink.write_failed());
  EXPECT_EQ(sink.events_written(), 1u);
}

// ---------------------------------------------------------------------------
// Budgets and cancellation.

TEST_F(FaultTest, PreCancelledTokenStopsBeforeAnySweep) {
  const auto p = SmallFixedProblem();
  CancelToken cancel;
  cancel.Cancel();
  SeaOptions o = TightOptions();
  o.cancel = &cancel;
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kCancelled);
  EXPECT_EQ(run.result.iterations, 0u);
}

TEST_F(FaultTest, TinyTimeBudgetExceedsImmediately) {
  const auto p = SmallFixedProblem();
  SeaOptions o = TightOptions();
  o.max_iterations = 1000000;
  o.time_budget_seconds = 1e-12;
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kTimeBudgetExceeded);
  EXPECT_FALSE(run.result.converged());
}

// ---------------------------------------------------------------------------
// Flight recorder: each guardrail failure class dumps a parseable
// postmortem; a converged solve never does; a failed dump write degrades.

// Strict-mode parse (a malformed postmortem fails the test) plus the
// structural contract: header first with the failing status, a termination
// event somewhere in the ring.
void ExpectPostmortem(const std::string& path, const char* status) {
  const auto events = obs::ReadTraceJsonl(path);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().Type(), "postmortem");
  ASSERT_TRUE(events.front().strings.count("status"));
  EXPECT_EQ(events.front().strings.at("status"), status);
  bool has_termination = false;
  for (const auto& ev : events)
    if (ev.Type() == "event" && ev.strings.count("kind") &&
        ev.strings.at("kind") == "termination")
      has_termination = true;
  EXPECT_TRUE(has_termination);
}

TEST_F(FaultTest, StalledSolveDumpsPostmortem) {
  const auto p = SmallFixedProblem();
  SeaOptions o = TightOptions();
  o.stall_checks = 3;
  fail::Arm("sea.engine.freeze_measure", 2);  // pin from the 2nd check on
  obs::JsonlTraceSink recorder("");
  const std::string path = ::testing::TempDir() + "/postmortem_stall.jsonl";
  std::remove(path.c_str());
  recorder.SetDumpPath(path);
  o.observers.push_back(&recorder);
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kStalled);
  EXPECT_TRUE(recorder.dumped());
  ExpectPostmortem(path, "stalled");
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream f(path);
  for (std::string line; std::getline(f, line);) lines.push_back(line);
  return lines;
}

// One sink writes the trace and the postmortem: the postmortem's ring is
// the trace's tail, byte for byte, after the header and last_good lines.
// The last_good line is pinned to what the separate recorder wrote before
// the two were merged (it then came from a dedicated good-iterate hook).
TEST_F(FaultTest, StallPostmortemIsTheTraceTail) {
  const auto p = SmallFixedProblem();
  SeaOptions o = TightOptions();
  o.stall_checks = 3;
  fail::Arm("sea.engine.freeze_measure", 2);  // pin from the 2nd check on
  const std::string trace_path = ::testing::TempDir() + "/stall_trace.jsonl";
  const std::string pm_path = ::testing::TempDir() + "/stall_pm.jsonl";
  std::remove(pm_path.c_str());
  {
    obs::JsonlTraceSink sink(trace_path, /*ring_capacity=*/5);
    sink.SetDumpPath(pm_path);
    o.observers.push_back(&sink);
    const auto run = SolveDiagonal(p, o);
    EXPECT_EQ(run.result.status, SolveStatus::kStalled);
    EXPECT_TRUE(sink.dumped());
    EXPECT_EQ(sink.recorded(), sink.events_written());
  }
  const auto trace = ReadLines(trace_path);
  const auto pm = ReadLines(pm_path);
  // begin, checks 1-3, the stall trip, check 4, termination.
  ASSERT_EQ(trace.size(), 7u);
  EXPECT_NE(trace[4].find("\"kind\":\"stall\""), std::string::npos);
  ASSERT_EQ(pm.size(), 2u + 5u);
  EXPECT_NE(pm[0].find("\"events_dropped\":2"), std::string::npos) << pm[0];
  EXPECT_EQ(pm[1],
            "{\"type\":\"last_good\",\"iter\":4,"
            "\"measure\":0.05892881645960557}");
  EXPECT_EQ(std::vector<std::string>(pm.begin() + 2, pm.end()),
            std::vector<std::string>(trace.end() - 5, trace.end()));
  ExpectPostmortem(pm_path, "stalled");
}

// last_good skips a check whose measure is not finite: after a breakdown at
// check 3 it is still check 2 (pinned like the stall case above).
TEST_F(FaultTest, BreakdownPostmortemKeepsLastFiniteCheck) {
  const auto p = SmallFixedProblem();
  SeaOptions o = TightOptions();
  fail::Arm("sea.engine.poison_measure", 3);
  obs::JsonlTraceSink sink("");
  o.observers.push_back(&sink);
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kNumericalBreakdown);
  const std::string path = ::testing::TempDir() + "/breakdown_pm.jsonl";
  ASSERT_TRUE(sink.WritePostmortem(path));
  const auto pm = ReadLines(path);
  ASSERT_GE(pm.size(), 2u);
  EXPECT_EQ(pm[1],
            "{\"type\":\"last_good\",\"iter\":2,"
            "\"measure\":5.722569919353049e-05}");
}

TEST_F(FaultTest, BreakdownDumpsPostmortem) {
  const auto p = SmallFixedProblem();
  SeaOptions o = TightOptions();
  fail::Arm("sea.engine.poison_measure", 3);
  obs::JsonlTraceSink recorder("");
  const std::string path =
      ::testing::TempDir() + "/postmortem_breakdown.jsonl";
  std::remove(path.c_str());
  recorder.SetDumpPath(path);
  o.observers.push_back(&recorder);
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kNumericalBreakdown);
  EXPECT_TRUE(recorder.dumped());
  ExpectPostmortem(path, "numerical-breakdown");
}

TEST_F(FaultTest, CancelledSolveDumpsPostmortem) {
  const auto p = SmallFixedProblem();
  CancelToken cancel;
  SeaOptions o = TightOptions();
  o.cancel = &cancel;
  // Cancel mid-run from the progress callback; the engine observes it at
  // the next check-iteration poll.
  CheckObserver progress([&cancel](const IterationEvent& ev) {
    if (ev.iteration >= 2) cancel.Cancel();
  });
  o.observers.push_back(&progress);
  obs::JsonlTraceSink recorder("");
  const std::string path = ::testing::TempDir() + "/postmortem_cancel.jsonl";
  std::remove(path.c_str());
  recorder.SetDumpPath(path);
  o.observers.push_back(&recorder);
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kCancelled);
  EXPECT_TRUE(recorder.dumped());
  ExpectPostmortem(path, "cancelled");
}

TEST_F(FaultTest, BudgetExceededDumpsPostmortem) {
  const auto p = SmallFixedProblem();
  SeaOptions o = TightOptions();
  o.max_iterations = 1000000;
  o.time_budget_seconds = 1e-12;
  obs::JsonlTraceSink recorder("");
  const std::string path = ::testing::TempDir() + "/postmortem_budget.jsonl";
  std::remove(path.c_str());
  recorder.SetDumpPath(path);
  o.observers.push_back(&recorder);
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kTimeBudgetExceeded);
  EXPECT_TRUE(recorder.dumped());
  ExpectPostmortem(path, "time-budget-exceeded");
}

TEST_F(FaultTest, ConvergedSolveDoesNotDump) {
  const auto p = SmallFixedProblem();
  SeaOptions o;  // default epsilon: converges
  obs::JsonlTraceSink recorder("");
  const std::string path = ::testing::TempDir() + "/postmortem_none.jsonl";
  std::remove(path.c_str());
  recorder.SetDumpPath(path);
  o.observers.push_back(&recorder);
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_FALSE(recorder.dumped());
  std::ifstream check(path);
  EXPECT_FALSE(check.good());  // no file on the success path
  // The recorder still holds the run's events for a manual dump.
  EXPECT_GE(recorder.recorded(), 2u);  // begin + termination at minimum
}

// ---------------------------------------------------------------------------
// Recovery ladder (docs/ROBUSTNESS.md): each rung rescues the failure class
// it is built for; the historical terminal statuses return only after the
// ladder is exhausted.

// Loose enough to converge after a rescue, tight enough that the poison /
// freeze failpoints always fire before convergence.
SeaOptions RecoverOptions() {
  SeaOptions o;
  o.epsilon = 1e-8;
  o.criterion = StopCriterion::kResidualAbs;
  o.recover = true;
  return o;
}

TEST_F(FaultTest, TransientBreakdownIsRescuedByRestoreRung) {
  const auto p = SmallFixedProblem();
  SeaOptions o = RecoverOptions();
  // Exactly one poisoned check: the cheapest rung absorbs it.
  fail::Arm("sea.engine.poison_measure", 3, 1);
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(run.result.recovered_count, 1u);
  EXPECT_EQ(run.result.recovery_rungs, std::vector<std::uint8_t>({1}));
  EXPECT_TRUE(AllFinite(run.solution.x));
}

TEST_F(FaultTest, RepeatedBreakdownEscalatesToDampRung) {
  const auto p = SmallFixedProblem();
  SeaOptions o = RecoverOptions();
  o.recovery_retries = 1;
  // Two consecutive poisoned checks: rung 1's single retry is spent, the
  // second trip escalates to the damped half-step window.
  fail::Arm("sea.engine.poison_measure", 3, 2);
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(run.result.recovered_count, 2u);
  EXPECT_EQ(run.result.recovery_rungs, std::vector<std::uint8_t>({1, 2}));
}

TEST_F(FaultTest, ThirdBreakdownRestartsFromLastCheckpoint) {
  const auto p = SmallFixedProblem();
  SeaOptions o = RecoverOptions();
  o.recovery_retries = 1;
  // A checkpoint writer is attached, so the clean checks before the poison
  // leave a durable state for rung 3 to rewind to.
  CheckpointWriter writer(::testing::TempDir() + "/ladder_restart.bin");
  o.checkpoint = &writer;
  fail::Arm("sea.engine.poison_measure", 3, 3);
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(run.result.recovered_count, 3u);
  EXPECT_EQ(run.result.recovery_rungs,
            std::vector<std::uint8_t>({1, 2, 3}));
  EXPECT_GE(writer.writes(), 1u);
}

// Elastic solves extrapolate (core/extrapolation.hpp); every rung clears
// the Anderson window, damped iterations run without it, and the solve
// still converges, extrapolating again once the window refills.
TEST_F(FaultTest, ElasticLadderClearsTheWindowAndConverges) {
  DenseMatrix x0(6, 5), gamma(6, 5);
  double v = 1.0;
  for (double& c : x0.Flat()) c = v++;
  v = 0.0;
  for (double& c : gamma.Flat()) {
    v += 1.0;
    c = 0.4 + 0.31 * (v * v / 30.0);
  }
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& t : s0) t *= 1.3;
  for (double& t : d0) t *= 0.8;
  const auto p = DiagonalProblem::MakeElastic(
      x0, gamma, s0, Vector(6, 0.3), d0, Vector(5, 0.7));
  SeaOptions o = RecoverOptions();
  o.recovery_retries = 1;
  const auto clean = SolveDiagonal(p, o);
  ASSERT_TRUE(clean.result.converged());
  ASSERT_GT(clean.result.extrapolations_accepted, 0u);
  // Three poisoned checks from the 4th on, once the window holds pairs:
  // one rescue per rung.
  fail::Arm("sea.engine.poison_measure", 4, 3);
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(run.result.recovery_rungs,
            std::vector<std::uint8_t>({1, 2, 3}));
  EXPECT_GT(run.result.extrapolations_accepted, 0u);
  EXPECT_LE(run.result.extrapolations_accepted +
                run.result.extrapolations_rejected,
            run.result.iterations);
  EXPECT_TRUE(AllFinite(run.solution.x));
  EXPECT_LT(run.solution.x.MaxAbsDiff(clean.solution.x), 1e-6);
}

TEST_F(FaultTest, ExhaustedLadderReturnsTheHistoricalStatus) {
  const auto p = SmallFixedProblem();
  SeaOptions o = RecoverOptions();
  o.recovery_retries = 1;
  fail::Arm("sea.engine.poison_measure", 3);  // poisoned forever
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kNumericalBreakdown);
  EXPECT_FALSE(run.result.converged());
  // All three rungs were tried before giving up, and the returned iterate
  // is still the last finite one.
  EXPECT_EQ(run.result.recovered_count, 3u);
  EXPECT_EQ(run.result.recovery_rungs,
            std::vector<std::uint8_t>({1, 2, 3}));
  EXPECT_TRUE(AllFinite(run.solution.x));
}

TEST_F(FaultTest, StallTripIsRescuedAndConverges) {
  const auto p = SmallFixedProblem();
  SeaOptions o = RecoverOptions();
  o.stall_checks = 3;
  // Freeze the measure for a window of checks: the stall detector trips,
  // the ladder rescues, and once the freeze expires the solve converges.
  fail::Arm("sea.engine.freeze_measure", 2, 8);
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_GE(run.result.recovered_count, 1u);
  for (std::uint8_t rung : run.result.recovery_rungs) EXPECT_EQ(rung, 1u);
}

TEST_F(FaultTest, PersistentStallExhaustsTheLadder) {
  const auto p = SmallFixedProblem();
  SeaOptions o = RecoverOptions();
  // The freeze fakes only the *reported* measure, so the iterate keeps
  // converging underneath and on this tiny problem the true residual hits
  // exactly 0.0 within ~13 iterations — reachable at any legal epsilon.
  // A one-check stall fuse makes every pinned check a trip, exhausting the
  // ladder (4 trips, 3 rescues) before the un-pinned post-rescue checks
  // can observe the exact zero.
  o.epsilon = 1e-300;
  o.stall_checks = 1;
  o.recovery_retries = 1;
  fail::Arm("sea.engine.freeze_measure", 2);
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kStalled);
  EXPECT_EQ(run.result.recovered_count, 3u);
  EXPECT_EQ(run.result.recovery_rungs,
            std::vector<std::uint8_t>({1, 2, 3}));
}

TEST_F(FaultTest, RecoveryOffPreservesTheLegacyContract) {
  const auto p = SmallFixedProblem();
  SeaOptions o = RecoverOptions();
  o.recover = false;
  fail::Arm("sea.engine.poison_measure", 3, 1);
  const auto run = SolveDiagonal(p, o);
  EXPECT_EQ(run.result.status, SolveStatus::kNumericalBreakdown);
  EXPECT_EQ(run.result.recovered_count, 0u);
  EXPECT_TRUE(run.result.recovery_rungs.empty());
}

TEST_F(FaultTest, RecoveryEmitsLiveTelemetry) {
  const auto p = SmallFixedProblem();
  SeaOptions o = RecoverOptions();
  obs::MetricsRegistry metrics;
  obs::MetricsObserver metrics_observer(metrics);
  o.observers.push_back(&metrics_observer);
  obs::JsonlTraceSink recorder("");
  o.observers.push_back(&recorder);
  const std::string status_path =
      ::testing::TempDir() + "/recovery_status.json";
  obs::StatusFileWriter status(status_path, o.epsilon,
                               /*min_interval_seconds=*/0.0);
  o.observers.push_back(&status);
  fail::Arm("sea.engine.poison_measure", 3, 1);
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  ASSERT_EQ(run.result.recovered_count, 1u);

  // Counters land live during the solve, not in an end-of-run flush.
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("sea.recovery.rescues"), 1u);
  EXPECT_EQ(snap.CounterValue("sea.recovery.rung.restore"), 1u);
  EXPECT_EQ(snap.CounterValue("sea.checkpoint.resumes"), 0u);
  EXPECT_EQ(snap.GaugeValue("sea.recovery.active_rung"), 1.0);

  // The ring holds the rescue; a manual dump shows it as a recovery event.
  const std::string dump_path =
      ::testing::TempDir() + "/recovery_events.jsonl";
  ASSERT_TRUE(recorder.WritePostmortem(dump_path));
  bool saw_recovery = false;
  for (const auto& ev : obs::ReadTraceJsonl(dump_path))
    if (ev.Type() == "event" && ev.strings.count("kind") &&
        ev.strings.at("kind") == "recovery")
      saw_recovery = true;
  EXPECT_TRUE(saw_recovery);

  // The status file's final snapshot carries the recovery surface.
  std::ifstream f(status_path);
  std::string contents((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"recoveries\":1"), std::string::npos);
  EXPECT_NE(contents.find("\"last_recovery_rung\":\"restore\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Durability degradations: failed checkpoint/atomic writes degrade the
// artifact, never the solve.

TEST_F(FaultTest, CheckpointWriteFailureNeverFailsTheSolve) {
  const auto p = SmallFixedProblem();
  SeaOptions o;
  o.epsilon = 1e-8;
  o.criterion = StopCriterion::kResidualAbs;
  const std::string path = ::testing::TempDir() + "/ckpt_unwritable.bin";
  std::remove(path.c_str());
  // No-retry policy keeps the test fast; every attempt fails.
  CheckpointWriter writer(path, 1, support::RetryPolicy{1, 0.0, 1.0});
  o.checkpoint = &writer;
  fail::Arm("sea.support.atomic_write");
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(writer.writes(), 0u);
  EXPECT_GE(writer.write_failures(), 1u);
  std::ifstream check(path);
  EXPECT_FALSE(check.good());  // no partial file was ever published
}

TEST_F(FaultTest, AtomicWriterRetriesTransientFailures) {
  const std::string path = ::testing::TempDir() + "/atomic_retry.txt";
  std::remove(path.c_str());
  support::AtomicFileWriter writer(support::RetryPolicy{3, 0.01, 2.0});
  // Exactly one failing attempt: the retry lands the file.
  fail::Arm("sea.support.atomic_write", 1, 1);
  EXPECT_TRUE(
      writer.Write(path, [](std::ostream& f) { f << "payload\n"; }));
  EXPECT_EQ(writer.attempts(), 2u);
  std::ifstream check(path);
  std::string line;
  ASSERT_TRUE(std::getline(check, line));
  EXPECT_EQ(line, "payload");
}

TEST_F(FaultTest, AtomicWriterGivesUpAfterTheRetryBudget) {
  const std::string path = ::testing::TempDir() + "/atomic_give_up.txt";
  std::remove(path.c_str());
  support::AtomicFileWriter writer(support::RetryPolicy{3, 0.01, 2.0});
  fail::Arm("sea.support.atomic_write");  // every attempt fails
  EXPECT_FALSE(
      writer.Write(path, [](std::ostream& f) { f << "payload\n"; }));
  EXPECT_EQ(writer.attempts(), 3u);
  std::ifstream check(path);
  EXPECT_FALSE(check.good());
}

TEST_F(FaultTest, AtomicAppendRetriesTransientFailures) {
  const std::string path = ::testing::TempDir() + "/append_retry.jsonl";
  std::remove(path.c_str());
  support::AtomicFileWriter writer(support::RetryPolicy{3, 0.01, 2.0});
  EXPECT_TRUE(writer.Append(path, [](std::ostream& f) { f << "one\n"; }));
  // Exactly one failing attempt on the second append: the retry lands it,
  // and the first line is still intact (append never truncates).
  fail::Arm("sea.support.atomic_append", 1, 1);
  EXPECT_TRUE(writer.Append(path, [](std::ostream& f) { f << "two\n"; }));
  EXPECT_EQ(writer.attempts(), 3u);
  std::ifstream check(path);
  std::string line;
  ASSERT_TRUE(std::getline(check, line));
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(std::getline(check, line));
  EXPECT_EQ(line, "two");
}

TEST_F(FaultTest, SolveLogEmitDegradesWhenEveryAppendFails) {
  const std::string path = ::testing::TempDir() + "/solve_log_fail.jsonl";
  std::remove(path.c_str());
  obs::SolveLogWriter writer(path);
  obs::SolveWideEvent event;
  event.status = "converged";
  fail::Arm("sea.support.atomic_append");  // every attempt fails
  EXPECT_FALSE(writer.Emit(event));  // degrade: caller warns and continues
  EXPECT_EQ(writer.emitted(), 0u);
  fail::DisarmAll();
  // The log recovers on the next invocation: exactly one line lands.
  EXPECT_TRUE(writer.Emit(event));
  EXPECT_EQ(writer.emitted(), 1u);
  const auto events = obs::ReadTraceJsonl(path);  // strict: no torn lines
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].strings.at("status"), "converged");
}

TEST_F(FaultTest, CrashAfterCheckpointFailpointIsArmable) {
  // The CI crash-resume smoke kills sea_solve through this site; here just
  // prove the spec parses and the site fires on the armed visit (the actual
  // std::abort is exercised end-to-end in CI, not in-process).
  EXPECT_EQ(fail::ArmFromSpec("sea.engine.crash_after_checkpoint:5:1"), 1u);
  for (int visit = 1; visit <= 6; ++visit) {
    const bool fired =
        fail::Triggered("sea.engine.crash_after_checkpoint");
    EXPECT_EQ(fired, visit == 5) << "visit " << visit;
  }
}

TEST_F(FaultTest, PostmortemWriteFailureDegradesNotTheResult) {
  const auto p = SmallFixedProblem();
  SeaOptions o = TightOptions();
  o.stall_checks = 3;
  fail::Arm("sea.engine.freeze_measure", 2);
  fail::Arm("sea.obs.postmortem_write");
  obs::JsonlTraceSink recorder("");
  const std::string path = ::testing::TempDir() + "/postmortem_fail.jsonl";
  std::remove(path.c_str());
  recorder.SetDumpPath(path);
  o.observers.push_back(&recorder);
  const auto run = SolveDiagonal(p, o);
  // The solve result is untouched by the failed dump, and no partial file
  // is published (the temp never got renamed into place).
  EXPECT_EQ(run.result.status, SolveStatus::kStalled);
  EXPECT_FALSE(recorder.dumped());
  std::ifstream check(path);
  EXPECT_FALSE(check.good());
}

}  // namespace
}  // namespace sea
