#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baselines/reference_solvers.hpp"
#include "core/diagonal_sea.hpp"
#include "core/engine_observer.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/feasibility.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix Fill(std::size_t m, std::size_t n, Rng& rng, double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

DiagonalProblem RandomProblem(TotalsMode mode, std::size_t m, std::size_t n,
                              Rng& rng) {
  if (mode == TotalsMode::kSam) n = m;  // SAM problems are square
  DenseMatrix x0 = Fill(m, n, rng, 0.1, 50.0);
  DenseMatrix gamma = Fill(m, n, rng, 0.05, 2.0);
  switch (mode) {
    case TotalsMode::kFixed: {
      Vector s0 = x0.RowSums();
      Vector d0 = x0.ColSums();
      const double grow = rng.Uniform(0.7, 1.6);
      for (double& v : s0) v *= grow;
      for (double& v : d0) v *= grow;
      return DiagonalProblem::MakeFixed(std::move(x0), std::move(gamma),
                                        std::move(s0), std::move(d0));
    }
    case TotalsMode::kElastic: {
      Vector s0 = x0.RowSums();
      Vector d0 = x0.ColSums();
      for (double& v : s0) v *= rng.Uniform(0.8, 1.5);
      for (double& v : d0) v *= rng.Uniform(0.8, 1.5);
      return DiagonalProblem::MakeElastic(
          std::move(x0), std::move(gamma), std::move(s0),
          rng.UniformVector(m, 0.1, 2.0), std::move(d0),
          rng.UniformVector(n, 0.1, 2.0));
    }
    case TotalsMode::kSam: {
      Vector s0 = x0.RowSums();
      for (std::size_t i = 0; i < n; ++i)
        s0[i] = 0.5 * (s0[i] + x0.ColSums()[i]) * rng.Uniform(0.9, 1.2);
      return DiagonalProblem::MakeSam(std::move(x0), std::move(gamma),
                                      std::move(s0),
                                      rng.UniformVector(n, 0.1, 2.0));
    }
    case TotalsMode::kInterval:
      break;  // covered by test_interval.cpp
  }
  throw std::logic_error("unreachable");
}

SeaOptions TightOptions() {
  SeaOptions o;
  o.epsilon = 1e-9;
  o.criterion = StopCriterion::kResidualAbs;
  o.max_iterations = 200000;
  return o;
}

TEST(DiagonalSea, MatchesEnumerativeOracleFixed) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = RandomProblem(TotalsMode::kFixed, 2, 3, rng);
    const auto oracle = SolveEnumerativeKkt(p);
    ASSERT_TRUE(oracle.has_value());
    const auto run = SolveDiagonal(p, TightOptions());
    EXPECT_TRUE(run.result.converged());
    EXPECT_LT(run.solution.x.MaxAbsDiff(oracle->x), 1e-6) << "trial " << trial;
  }
}

TEST(DiagonalSea, MatchesEnumerativeOracleElastic) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = RandomProblem(TotalsMode::kElastic, 2, 2, rng);
    const auto oracle = SolveEnumerativeKkt(p);
    ASSERT_TRUE(oracle.has_value());
    const auto run = SolveDiagonal(p, TightOptions());
    EXPECT_TRUE(run.result.converged());
    EXPECT_LT(run.solution.x.MaxAbsDiff(oracle->x), 1e-6);
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_NEAR(run.solution.s[i], oracle->s[i], 1e-6);
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(run.solution.d[j], oracle->d[j], 1e-6);
  }
}

TEST(DiagonalSea, MatchesEnumerativeOracleSam) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = RandomProblem(TotalsMode::kSam, 3, 3, rng);
    const auto oracle = SolveEnumerativeKkt(p);
    ASSERT_TRUE(oracle.has_value());
    SeaOptions o = TightOptions();
    o.criterion = StopCriterion::kResidualRel;
    o.epsilon = 1e-10;
    const auto run = SolveDiagonal(p, o);
    EXPECT_TRUE(run.result.converged());
    EXPECT_LT(run.solution.x.MaxAbsDiff(oracle->x), 1e-5);
  }
}

// Property sweep across modes, sizes, and seeds: converged runs must be
// feasible and KKT-stationary, with objective matching the independent dual
// gradient reference.
class DiagonalSeaProperty
    : public ::testing::TestWithParam<
          std::tuple<TotalsMode, std::size_t, std::size_t, int>> {};

TEST_P(DiagonalSeaProperty, FeasibleStationaryAndAgreesWithReference) {
  const auto [mode, m, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1315423911ULL + m * 31 + n);
  const auto p = RandomProblem(mode, m, n, rng);

  SeaOptions o = TightOptions();
  o.epsilon = 1e-8;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());

  const auto rep = CheckFeasibility(p, run.solution);
  EXPECT_LT(rep.MaxAbs(), 1e-6);
  EXPECT_GE(rep.min_x, 0.0);
  EXPECT_LT(KktStationarityError(p, run.solution), 1e-6);

  const auto ref =
      SolveDualGradient(p, {.grad_tol = 1e-9, .max_iterations = 400000});
  if (ref.converged) {
    const double obj_ref =
        p.Objective(ref.solution.x, ref.solution.s, ref.solution.d);
    EXPECT_NEAR(run.result.objective, obj_ref,
                1e-5 * std::max(1.0, std::abs(obj_ref)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiagonalSeaProperty,
    ::testing::Combine(::testing::Values(TotalsMode::kFixed,
                                         TotalsMode::kElastic),
                       ::testing::Values<std::size_t>(3, 8, 17),
                       ::testing::Values<std::size_t>(4, 9),
                       ::testing::Values(1, 2, 3)));

INSTANTIATE_TEST_SUITE_P(
    SweepSam, DiagonalSeaProperty,
    ::testing::Combine(::testing::Values(TotalsMode::kSam),
                       ::testing::Values<std::size_t>(4, 12),
                       ::testing::Values<std::size_t>(4, 12),
                       ::testing::Values(1, 2, 3)));

TEST(DiagonalSea, SamSolutionsBalance) {
  Rng rng(4);
  const auto p = RandomProblem(TotalsMode::kSam, 10, 10, rng);
  SeaOptions o = TightOptions();
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  for (std::size_t i = 0; i < 10; ++i) {
    double rs = 0.0, cs = 0.0;
    for (std::size_t j = 0; j < 10; ++j) {
      rs += run.solution.x(i, j);
      cs += run.solution.x(j, i);
    }
    EXPECT_NEAR(rs, cs, 1e-6);
    EXPECT_NEAR(rs, run.solution.s[i], 1e-6);
  }
}

TEST(DiagonalSea, ParallelRunsBitIdentical) {
  Rng rng(5);
  const auto p = RandomProblem(TotalsMode::kFixed, 40, 33, rng);
  SeaOptions serial = TightOptions();
  const auto run_serial = SolveDiagonal(p, serial);

  ThreadPool pool(4);
  SeaOptions par = TightOptions();
  par.pool = &pool;
  const auto run_par = SolveDiagonal(p, par);

  EXPECT_EQ(run_serial.result.iterations, run_par.result.iterations);
  EXPECT_DOUBLE_EQ(run_serial.solution.x.MaxAbsDiff(run_par.solution.x), 0.0);
  for (std::size_t i = 0; i < p.m(); ++i)
    EXPECT_EQ(run_serial.solution.lambda[i], run_par.solution.lambda[i]);
}

TEST(DiagonalSea, DefaultSolveRepairsPersistedOrders) {
  // Default options, no sort choice: each market's first sweep cold-sorts
  // and every later sweep repairs that order.
  Rng rng(5);
  const auto p = RandomProblem(TotalsMode::kFixed, 40, 33, rng);
  const auto run = SolveDiagonal(p, SeaOptions{});
  ASSERT_GE(run.result.iterations, 2u);
  EXPECT_GT(run.result.order_reuses, 0u);
  EXPECT_EQ(run.result.order_reuses,
            (run.result.iterations - 1) * (p.m() + p.n()));
}

TEST(DiagonalSea, WarmStartSkipsWork) {
  Rng rng(6);
  const auto p = RandomProblem(TotalsMode::kFixed, 20, 20, rng);
  SeaOptions o = TightOptions();
  DiagonalSea solver(p);
  const auto cold = solver.Solve(o);
  ASSERT_TRUE(cold.result.converged());
  const auto warm = solver.SolveWarm(o, cold.solution.mu);
  EXPECT_TRUE(warm.result.converged());
  EXPECT_LE(warm.result.iterations, cold.result.iterations);
  EXPECT_LT(warm.solution.x.MaxAbsDiff(cold.solution.x), 1e-6);
}

TEST(DiagonalSea, WarmStartFromNonzeroMuMatchesColdFixedPoint) {
  // Warm-starting from arbitrary (not just previously-converged) column
  // multipliers must land on the same fixed point as a cold solve.
  Rng rng(21);
  const auto p = RandomProblem(TotalsMode::kFixed, 14, 11, rng);
  SeaOptions o = TightOptions();
  DiagonalSea solver(p);
  const auto cold = solver.Solve(o);
  ASSERT_TRUE(cold.result.converged());

  const Vector mu0 = rng.UniformVector(11, -5.0, 5.0);
  const auto warm = solver.SolveWarm(o, mu0);
  ASSERT_TRUE(warm.result.converged());
  EXPECT_LT(warm.solution.x.MaxAbsDiff(cold.solution.x), 1e-6);
  EXPECT_NEAR(warm.result.objective, cold.result.objective,
              1e-6 * std::max(1.0, std::abs(cold.result.objective)));
}

TEST(DiagonalSea, ResetProblemMatchesFreshSolver) {
  // Reusing one solver across same-shape problems (the general algorithm's
  // inner-loop pattern) must give exactly the answer of a fresh solver.
  Rng rng(22);
  const auto p1 = RandomProblem(TotalsMode::kElastic, 9, 13, rng);
  const auto p2 = RandomProblem(TotalsMode::kElastic, 9, 13, rng);
  SeaOptions o = TightOptions();

  DiagonalSea reused(p1);
  ASSERT_TRUE(reused.Solve(o).result.converged());
  reused.ResetProblem(p2);
  const auto via_reset = reused.Solve(o);

  DiagonalSea fresh(p2);
  const auto via_fresh = fresh.Solve(o);

  ASSERT_TRUE(via_reset.result.converged());
  EXPECT_EQ(via_reset.result.iterations, via_fresh.result.iterations);
  EXPECT_DOUBLE_EQ(
      via_reset.solution.x.MaxAbsDiff(via_fresh.solution.x), 0.0);
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_EQ(via_reset.solution.lambda[i], via_fresh.solution.lambda[i]);
}

TEST(DiagonalSea, ProgressCallbackFiresOnCheckIterationsOnly) {
  Rng rng(23);
  const auto p = RandomProblem(TotalsMode::kFixed, 10, 10, rng);
  SeaOptions o = TightOptions();
  o.check_every = 4;
  std::vector<IterationEvent> events;
  CheckObserver progress(
      [&](const IterationEvent& ev) { events.push_back(ev); });
  o.observers.push_back(&progress);
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());

  ASSERT_FALSE(events.empty());
  for (const auto& ev : events) {
    EXPECT_TRUE(ev.iteration % 4 == 0 || ev.iteration == run.result.iterations)
        << "callback fired on a non-check iteration " << ev.iteration;
    EXPECT_TRUE(ev.measure_defined);
  }
  EXPECT_EQ(events.back().iteration, run.result.iterations);
  EXPECT_TRUE(events.back().converged);
  EXPECT_EQ(events.back().measure, run.result.final_residual);
  // Residuals arrive in (weakly) decreasing order on this geometric run.
  for (std::size_t k = 1; k < events.size(); ++k)
    EXPECT_LE(events[k].measure, events[k - 1].measure * (1.0 + 1e-9));
}

TEST(DiagonalSea, XChangeFirstCheckReportsUndefinedMeasure) {
  // With max_iterations = 1 the only check has no previous iterate: the
  // measure must be reported as never-compared (not infinity) and the
  // comparison flops must not be charged.
  Rng rng(24);
  const auto p = RandomProblem(TotalsMode::kFixed, 8, 9, rng);
  SeaOptions o = TightOptions();
  o.criterion = StopCriterion::kXChange;
  o.max_iterations = 1;
  const auto run = SolveDiagonal(p, o);
  EXPECT_FALSE(run.result.converged());
  EXPECT_EQ(run.result.checks_compared, 0u);
  EXPECT_EQ(run.result.final_residual, 0.0);
  EXPECT_TRUE(std::isfinite(run.result.final_residual));

  // Same run under a residual criterion performs identical sweeps and one
  // evaluated check, so it carries exactly the 2mn check flops extra.
  SeaOptions o_res = TightOptions();
  o_res.max_iterations = 1;
  const auto run_res = SolveDiagonal(p, o_res);
  EXPECT_EQ(run_res.result.checks_compared, 1u);
  EXPECT_EQ(run.result.ops.flops + 2u * 8u * 9u, run_res.result.ops.flops);
}

TEST(DiagonalSea, XChangeCriterionTerminates) {
  Rng rng(7);
  const auto p = RandomProblem(TotalsMode::kFixed, 12, 15, rng);
  SeaOptions o;
  o.criterion = StopCriterion::kXChange;
  o.epsilon = 1e-8;
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  // x-change convergence still implies near-feasibility here.
  EXPECT_LT(CheckFeasibility(p, run.solution).MaxRel(), 1e-4);
}

TEST(DiagonalSea, CheckEverySkipsChecks) {
  Rng rng(8);
  const auto p = RandomProblem(TotalsMode::kElastic, 15, 15, rng);
  SeaOptions every = TightOptions();
  const auto run1 = SolveDiagonal(p, every);
  SeaOptions spaced = TightOptions();
  spaced.check_every = 4;
  const auto run4 = SolveDiagonal(p, spaced);
  EXPECT_TRUE(run1.result.converged());
  EXPECT_TRUE(run4.result.converged());
  // Spaced checking can only overshoot the iteration count, never converge
  // to a different point.
  EXPECT_GE(run4.result.iterations + 3, run1.result.iterations);
  EXPECT_LT(run1.solution.x.MaxAbsDiff(run4.solution.x), 1e-5);
}

TEST(DiagonalSea, ColumnConstraintsExactAfterSolve) {
  // After the final column sweep, column totals hold to machine precision.
  Rng rng(9);
  const auto p = RandomProblem(TotalsMode::kFixed, 10, 8, rng);
  const auto run = SolveDiagonal(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  for (std::size_t j = 0; j < 8; ++j) {
    double cs = 0.0;
    for (std::size_t i = 0; i < 10; ++i) cs += run.solution.x(i, j);
    EXPECT_NEAR(cs, p.d0()[j], 1e-8 * std::max(1.0, p.d0()[j]));
  }
}

TEST(DiagonalSea, CheckPhaseTimeWithinWallTime) {
  // The measured check share (the serial fraction in the ablation bench)
  // divides check_phase_seconds by wall_seconds.
  Rng rng(10);
  const auto p = RandomProblem(TotalsMode::kFixed, 6, 7, rng);
  const auto run = SolveDiagonal(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  EXPECT_GT(run.result.check_phase_seconds, 0.0);
  EXPECT_LE(run.result.check_phase_seconds, run.result.wall_seconds);
}

TEST(DiagonalSea, ObjectiveNotWorseThanReference) {
  Rng rng(11);
  const auto p = RandomProblem(TotalsMode::kElastic, 10, 12, rng);
  const auto run = SolveDiagonal(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  const auto ref = SolveDualGradient(p, {.grad_tol = 1e-8});
  ASSERT_TRUE(ref.converged);
  const double obj_ref =
      p.Objective(ref.solution.x, ref.solution.s, ref.solution.d);
  EXPECT_LT(std::abs(run.result.objective - obj_ref),
            1e-5 * std::max(1.0, obj_ref));
}

TEST(DiagonalSea, IterationLimitReportsNonConvergence) {
  Rng rng(12);
  const auto p = RandomProblem(TotalsMode::kElastic, 20, 20, rng);
  SeaOptions o = TightOptions();
  o.max_iterations = 1;
  const auto run = SolveDiagonal(p, o);
  EXPECT_FALSE(run.result.converged());
  EXPECT_EQ(run.result.iterations, 1u);
}

TEST(DiagonalSea, FixedModeHandlesZeroTotalsRowAndColumn) {
  // A row and a column with zero totals force a zero cross.
  DenseMatrix x0(2, 2, 1.0);
  DenseMatrix gamma(2, 2, 1.0);
  const auto p =
      DiagonalProblem::MakeFixed(x0, gamma, {2.0, 0.0}, {2.0, 0.0});
  const auto run = SolveDiagonal(p, TightOptions());
  EXPECT_TRUE(run.result.converged());
  EXPECT_NEAR(run.solution.x(1, 0), 0.0, 1e-9);
  EXPECT_NEAR(run.solution.x(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(run.solution.x(1, 1), 0.0, 1e-9);
  EXPECT_NEAR(run.solution.x(0, 0), 2.0, 1e-9);
}

}  // namespace
}  // namespace sea
