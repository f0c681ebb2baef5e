// Tests for the entropy (RAS-objective) member of the splitting
// equilibration family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/ras.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/weights.hpp"
#include "entropy/entropy_sea.hpp"
#include "problems/feasibility.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix Fill(std::size_t m, std::size_t n, Rng& rng, double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

EntropyProblem RandomEntropy(std::size_t m, std::size_t n, Rng& rng) {
  EntropyProblem p;
  p.x0 = Fill(m, n, rng, 0.5, 10.0);
  p.s0 = p.x0.RowSums();
  p.d0 = p.x0.ColSums();
  for (double& v : p.s0) v *= rng.Uniform(0.8, 1.3);
  double ssum = 0.0, dsum = 0.0;
  for (double v : p.s0) ssum += v;
  for (double v : p.d0) dsum += v;
  for (double& v : p.d0) v *= ssum / dsum;
  return p;
}

SeaOptions TightOptions() {
  SeaOptions o;
  o.epsilon = 1e-10;
  o.criterion = StopCriterion::kResidualRel;
  o.max_iterations = 100000;
  return o;
}

TEST(EntropyObjective, ZeroAtBaseAndPositiveElsewhere) {
  Rng rng(1);
  const auto x0 = Fill(4, 5, rng, 0.5, 3.0);
  EXPECT_NEAR(EntropyObjective(x0, x0), 0.0, 1e-12);
  DenseMatrix x = x0;
  x(1, 2) *= 2.0;
  EXPECT_GT(EntropyObjective(x, x0), 0.0);
}

TEST(EntropyObjective, RejectsMassOffSupport) {
  DenseMatrix x0(1, 2, 0.0);
  x0(0, 0) = 1.0;
  DenseMatrix x(1, 2, 0.5);
  EXPECT_THROW(EntropyObjective(x, x0), InvalidArgument);
}

TEST(EntropySea, MatchesRasTrajectoryExactly) {
  // One entropy row+column step is one RAS iteration: the solutions agree
  // to rounding after convergence.
  Rng rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    const auto p = RandomEntropy(6, 9, rng);
    const auto ent = SolveEntropy(p, TightOptions());
    const auto ras = SolveRas(p.x0, p.s0, p.d0, {.epsilon = 1e-12});
    ASSERT_TRUE(ent.result.converged());
    ASSERT_EQ(ras.status, RasStatus::kConverged);
    EXPECT_LT(ent.x.MaxAbsDiff(ras.x),
              1e-6 * std::max(1.0, std::ranges::max(ras.x.Flat())));
  }
}

TEST(EntropySea, SolutionIsBiproportional) {
  Rng rng(3);
  const auto p = RandomEntropy(5, 7, rng);
  const auto run = SolveEntropy(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 7; ++j)
      EXPECT_NEAR(run.x(i, j),
                  p.x0(i, j) * std::exp(run.lambda[i] + run.mu[j]),
                  1e-9 * std::max(1.0, run.x(i, j)));
}

TEST(EntropySea, StrongDualityAtConvergence) {
  Rng rng(4);
  const auto p = RandomEntropy(6, 6, rng);
  const auto run = SolveEntropy(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  const double dual = EntropyDualValue(p, run.lambda, run.mu);
  EXPECT_NEAR(dual, run.result.objective,
              1e-6 * std::max(1.0, std::abs(run.result.objective)));
}

TEST(EntropySea, WeakDualityForArbitraryMultipliers) {
  Rng rng(5);
  const auto p = RandomEntropy(4, 4, rng);
  const auto run = SolveEntropy(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  for (int trial = 0; trial < 20; ++trial) {
    const Vector lam = rng.UniformVector(4, -0.5, 0.5);
    const Vector mu = rng.UniformVector(4, -0.5, 0.5);
    EXPECT_LE(EntropyDualValue(p, lam, mu),
              run.result.objective +
                  1e-6 * std::max(1.0, run.result.objective));
  }
}

TEST(EntropySea, FeasibleAtConvergence) {
  Rng rng(6);
  const auto p = RandomEntropy(10, 12, rng);
  const auto run = SolveEntropy(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  const auto rep = CheckFeasibility(run.x, p.s0, p.d0);
  EXPECT_LT(rep.MaxRel(), 1e-8);
  EXPECT_GE(rep.min_x, 0.0);
}

TEST(EntropySea, PreservesStructuralZeros) {
  Rng rng(7);
  EntropyProblem p;
  p.x0 = Fill(5, 5, rng, 0.5, 5.0);
  p.x0(2, 3) = 0.0;
  p.x0(4, 0) = 0.0;
  p.s0 = p.x0.RowSums();
  p.d0 = p.x0.ColSums();
  const auto run = SolveEntropy(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  EXPECT_EQ(run.x(2, 3), 0.0);
  EXPECT_EQ(run.x(4, 0), 0.0);
}

TEST(EntropySea, ReportsNonConvergenceOnInfeasibleSupport) {
  // The Mohr-Crown-Polenske support: feasible totals do not exist.
  EntropyProblem p;
  p.x0 = DenseMatrix(2, 2, 0.0);
  p.x0(0, 0) = 1.0;
  p.x0(0, 1) = 1.0;
  p.x0(1, 1) = 1.0;
  p.s0 = {2.0, 5.0};
  p.d0 = {5.0, 2.0};
  SeaOptions o = TightOptions();
  o.max_iterations = 3000;
  const auto run = SolveEntropy(p, o);
  EXPECT_FALSE(run.result.converged());
  // The clamped duals hit an exact fixed point, so the stall detector fires
  // long before the iteration cap is burned.
  EXPECT_EQ(run.result.status, SolveStatus::kStalled);
  EXPECT_LT(run.result.iterations, 3000u);
}

TEST(EntropySea, EmptyRowWithPositiveTargetFailsFast) {
  EntropyProblem p;
  p.x0 = DenseMatrix(2, 2, 0.0);
  p.x0(0, 0) = 1.0;
  p.x0(0, 1) = 1.0;
  p.s0 = {2.0, 2.0};  // row 1 has no support but wants 2
  p.d0 = {2.0, 2.0};
  const auto run = SolveEntropy(p, TightOptions());
  EXPECT_FALSE(run.result.converged());
  EXPECT_EQ(run.result.status, SolveStatus::kInfeasible);
  EXPECT_EQ(run.result.iterations, 0u);
}

TEST(EntropySea, ZeroTargetRowVanishes) {
  Rng rng(8);
  EntropyProblem p;
  p.x0 = Fill(3, 3, rng, 1.0, 2.0);
  p.s0 = p.x0.RowSums();
  p.d0 = p.x0.ColSums();
  // Move row 0's mass requirement to zero, absorbing it in the columns.
  const double moved = p.s0[0];
  p.s0[0] = 0.0;
  const double dtotal = moved / 3.0;
  for (double& v : p.d0) v -= dtotal;
  for (double v : p.d0) ASSERT_GT(v, 0.0);
  const auto run = SolveEntropy(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  for (std::size_t j = 0; j < 3; ++j) EXPECT_LT(run.x(0, j), 1e-12);
}

TEST(EntropySea, DiffersFromQuadraticEstimate) {
  // Same data, two geometries: the entropy and chi-square estimates are
  // both feasible but generally different matrices — the choice the paper's
  // Section 2 discusses.
  Rng rng(9);
  const auto p = RandomEntropy(6, 6, rng);
  const auto ent = SolveEntropy(p, TightOptions());
  ASSERT_TRUE(ent.result.converged());

  const auto quad_problem = DiagonalProblem::MakeFixed(
      p.x0, datasets::ChiSquareWeights(p.x0), p.s0, p.d0);
  SeaOptions qo;
  qo.epsilon = 1e-10;
  qo.criterion = StopCriterion::kResidualAbs;
  const auto quad = SolveDiagonal(quad_problem, qo);
  ASSERT_TRUE(quad.result.converged());

  EXPECT_LT(CheckFeasibility(quad_problem, quad.solution).MaxAbs(), 1e-6);
  EXPECT_GT(ent.x.MaxAbsDiff(quad.solution.x), 1e-4);
  // Each is optimal for its own objective.
  EXPECT_LT(EntropyObjective(ent.x, p.x0),
            EntropyObjective(quad.solution.x, p.x0) + 1e-9);
}

TEST(EntropySea, XChangeFirstCheckReportsUndefinedMeasure) {
  // Hitting max_iterations before a second check leaves the x-change
  // measure undefined: no infinity, no comparison flops charged.
  Rng rng(19);
  const auto p = RandomEntropy(7, 8, rng);
  SeaOptions o = TightOptions();
  o.criterion = StopCriterion::kXChange;
  o.max_iterations = 1;
  const auto run = SolveEntropy(p, o);
  EXPECT_FALSE(run.result.converged());
  EXPECT_EQ(run.result.checks_compared, 0u);
  EXPECT_EQ(run.result.final_residual, 0.0);

  SeaOptions o_res = TightOptions();
  o_res.max_iterations = 1;
  const auto run_res = SolveEntropy(p, o_res);
  EXPECT_EQ(run_res.result.checks_compared, 1u);
  EXPECT_EQ(run.result.ops.flops + 2u * 7u * 8u, run_res.result.ops.flops);
}

TEST(EntropySam, BalancesAccounts) {
  Rng rng(10);
  DenseMatrix x0 = Fill(8, 8, rng, 0.5, 20.0);
  SeaOptions o;
  o.epsilon = 1e-10;
  const auto run = SolveEntropySam(x0, o);
  ASSERT_TRUE(run.result.converged());
  const Vector rows = run.x.RowSums();
  const Vector cols = run.x.ColSums();
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(rows[i], cols[i], 1e-8 * std::max(1.0, rows[i]));
}

TEST(EntropySam, AlreadyBalancedIsFixedPoint) {
  Rng rng(11);
  // Symmetric matrices are balanced; the solver must not move them.
  DenseMatrix x0(6, 6);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = i; j < 6; ++j) {
      const double v = rng.Uniform(1.0, 5.0);
      x0(i, j) = v;
      x0(j, i) = v;
    }
  SeaOptions o;
  o.epsilon = 1e-10;
  const auto run = SolveEntropySam(x0, o);
  ASSERT_TRUE(run.result.converged());
  EXPECT_LE(run.result.iterations, 2u);
  EXPECT_LT(run.x.MaxAbsDiff(x0), 1e-8);
}

TEST(EntropySam, PotentialFormHolds) {
  Rng rng(12);
  DenseMatrix x0 = Fill(7, 7, rng, 0.5, 10.0);
  SeaOptions o;
  o.epsilon = 1e-10;
  const auto run = SolveEntropySam(x0, o);
  ASSERT_TRUE(run.result.converged());
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 7; ++j)
      EXPECT_NEAR(run.x(i, j),
                  x0(i, j) * std::exp(run.nu[i] - run.nu[j]),
                  1e-8 * std::max(1.0, run.x(i, j)));
  // Diagonal entries never move.
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_DOUBLE_EQ(run.x(i, i), x0(i, i));
}

TEST(EntropySam, GrandTotalPreservedApproximately) {
  // Balancing redistributes between the triangle halves; the multiplicative
  // adjustment keeps the overall scale close for mild imbalance.
  Rng rng(13);
  DenseMatrix x0 = Fill(10, 10, rng, 1.0, 10.0);
  for (double& v : x0.Flat()) v *= rng.Uniform(0.95, 1.05);
  double before = 0.0;
  for (double v : x0.Flat()) before += v;
  SeaOptions o;
  o.epsilon = 1e-10;
  const auto run = SolveEntropySam(x0, o);
  ASSERT_TRUE(run.result.converged());
  double after = 0.0;
  for (double v : run.x.Flat()) after += v;
  EXPECT_NEAR(after, before, 0.05 * before);
}

TEST(EntropySam, RejectsNonSquare) {
  DenseMatrix x0(2, 3, 1.0);
  EXPECT_THROW(SolveEntropySam(x0, SeaOptions{}), InvalidArgument);
}

TEST(EntropySea, ValidatesInput) {
  EntropyProblem p;
  p.x0 = DenseMatrix(2, 2, 1.0);
  p.s0 = {2.0, 2.0};
  p.d0 = {3.0, 3.0};  // inconsistent
  EXPECT_THROW(SolveEntropy(p, TightOptions()), InvalidArgument);
}

}  // namespace
}  // namespace sea
