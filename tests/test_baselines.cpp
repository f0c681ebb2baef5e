#include <gtest/gtest.h>

#include <cmath>

#include "baselines/bachem_korte.hpp"
#include "baselines/ras.hpp"
#include "baselines/rc_algorithm.hpp"
#include "core/general_sea.hpp"
#include "datasets/general_dense.hpp"
#include "linalg/kernels.hpp"
#include "problems/feasibility.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

GeneralSeaOptions TightGeneral() {
  GeneralSeaOptions o;
  o.outer_epsilon = 1e-7;
  o.inner.criterion = StopCriterion::kResidualAbs;
  o.max_outer_iterations = 3000;
  return o;
}

TEST(Rc, AgreesWithGeneralSea) {
  Rng rng(1);
  for (std::size_t size : {3u, 5u}) {
    const auto p = datasets::MakeGeneralDense(size, size, rng);
    const auto sea_run = SolveGeneral(p, TightGeneral());
    RcOptions rc_opts;
    rc_opts.epsilon = 1e-7;
    rc_opts.max_outer_iterations = 5000;
    const auto rc_run = SolveRc(p, rc_opts);
    ASSERT_TRUE(sea_run.result.converged());
    ASSERT_TRUE(rc_run.result.converged) << size;
    EXPECT_NEAR(rc_run.result.objective, sea_run.result.objective,
                1e-3 * std::max(1.0, std::abs(sea_run.result.objective)))
        << size;
    EXPECT_LT(rc_run.solution.x.MaxAbsDiff(sea_run.solution.x),
              1e-2 * std::max(1.0, MaxAbs(sea_run.solution.x.Flat())));
  }
}

TEST(Rc, ProducesFeasibleSolution) {
  Rng rng(2);
  const auto p = datasets::MakeGeneralDense(6, 4, rng);
  RcOptions opts;
  opts.epsilon = 1e-6;
  const auto run = SolveRc(p, opts);
  ASSERT_TRUE(run.result.converged);
  const auto rep = CheckFeasibility(run.solution.x, p.s0(), p.d0());
  EXPECT_LT(rep.MaxRel(), 1e-5);
  EXPECT_GE(rep.min_x, 0.0);
}

TEST(Rc, RecordsProjectionIterations) {
  Rng rng(3);
  const auto p = datasets::MakeGeneralDense(4, 4, rng);
  RcOptions opts;
  opts.epsilon = 1e-6;
  const auto run = SolveRc(p, opts);
  ASSERT_TRUE(run.result.converged);
  // Two phases per outer iteration.
  EXPECT_EQ(run.result.projection_iterations_per_phase.size(),
            2 * run.result.outer_iterations);
  for (std::size_t it : run.result.projection_iterations_per_phase)
    EXPECT_GE(it, 1u);
}

TEST(Rc, RejectsNonFixedProblems) {
  Rng rng(4);
  DenseMatrix x0(2, 2, 1.0);
  DenseMatrix g = DenseMatrix::Identity(4);
  DenseMatrix a = DenseMatrix::Identity(2);
  DenseMatrix b = DenseMatrix::Identity(2);
  const auto p = GeneralProblem::MakeElasticFromCenters(x0, g, {2.0, 2.0}, a,
                                                        {2.0, 2.0}, b);
  EXPECT_THROW(SolveRc(p, RcOptions{}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Bachem-Korte (Hildreth-style reconstruction).

TEST(BachemKorte, AgreesWithGeneralSea) {
  Rng rng(6);
  for (std::size_t size : {3u, 4u}) {
    const auto p = datasets::MakeGeneralDense(size, size, rng);
    const auto sea_run = SolveGeneral(p, TightGeneral());
    BachemKorteOptions opts;
    opts.epsilon = 1e-7;
    opts.max_sweeps = 100000;
    const auto bk_run = SolveBachemKorte(p, opts);
    ASSERT_TRUE(sea_run.result.converged());
    ASSERT_TRUE(bk_run.result.converged) << size;
    EXPECT_NEAR(bk_run.result.objective, sea_run.result.objective,
                1e-3 * std::max(1.0, std::abs(sea_run.result.objective)));
  }
}

TEST(BachemKorte, SolutionIsFeasible) {
  Rng rng(7);
  const auto p = datasets::MakeGeneralDense(4, 5, rng);
  BachemKorteOptions opts;
  opts.epsilon = 1e-6;
  opts.max_sweeps = 200000;
  const auto run = SolveBachemKorte(p, opts);
  ASSERT_TRUE(run.result.converged);
  const auto rep = CheckFeasibility(run.solution.x, p.s0(), p.d0());
  EXPECT_LT(rep.MaxRel(), 1e-5);
  EXPECT_GE(rep.min_x, 0.0);
}

TEST(BachemKorte, GuardsAgainstLargeProblems) {
  Rng rng(8);
  DenseMatrix x0(70, 70, 1.0);
  DenseMatrix g = DenseMatrix::Identity(4900);
  const auto p = GeneralProblem::MakeFixedFromCenters(
      x0, g, Vector(70, 70.0), Vector(70, 70.0));
  EXPECT_THROW(SolveBachemKorte(p, BachemKorteOptions{}), InvalidArgument);
}

TEST(BachemKorte, RequiresPositiveDefiniteG) {
  DenseMatrix x0(2, 2, 1.0);
  DenseMatrix g(4, 4, 0.0);
  g(0, 0) = 1.0;
  g(1, 1) = 1.0;
  g(2, 2) = 1.0;
  g(3, 3) = 1.0;
  g(0, 1) = g(1, 0) = 2.0;  // indefinite
  // Diagonal is positive so problem validation passes; the Cholesky inside
  // B-K must reject it.
  const auto p = GeneralProblem::MakeFixed(2, 2, g, Vector(4, 1.0),
                                           {2.0, 2.0}, {2.0, 2.0});
  EXPECT_THROW(SolveBachemKorte(p, BachemKorteOptions{}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// RAS / iterative proportional fitting.

TEST(Ras, ConvergesOnConsistentProblem) {
  Rng rng(9);
  DenseMatrix x0(5, 6);
  for (double& v : x0.Flat()) v = rng.Uniform(1.0, 10.0);
  Vector s0 = x0.RowSums();
  Vector d0 = x0.ColSums();
  for (double& v : s0) v *= 1.5;
  for (double& v : d0) v *= 1.5;
  const auto res = SolveRas(x0, s0, d0);
  ASSERT_EQ(res.status, RasStatus::kConverged);
  const auto rep = CheckFeasibility(res.x, s0, d0);
  EXPECT_LT(rep.MaxRel(), 1e-7);
}

TEST(Ras, PreservesBiproportionalForm) {
  // Converged RAS solution must be x_ij = r_i * c_j * x0_ij.
  Rng rng(10);
  DenseMatrix x0(4, 4);
  for (double& v : x0.Flat()) v = rng.Uniform(1.0, 5.0);
  Vector s0 = x0.RowSums();
  Vector d0 = x0.ColSums();
  for (std::size_t i = 0; i < 4; ++i) s0[i] *= rng.Uniform(0.8, 1.3);
  double sum_s = 0.0, sum_d = 0.0;
  for (double v : s0) sum_s += v;
  for (double v : d0) sum_d += v;
  for (double& v : d0) v *= sum_s / sum_d;

  const auto res = SolveRas(x0, s0, d0);
  ASSERT_EQ(res.status, RasStatus::kConverged);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(res.x(i, j),
                  res.row_multipliers[i] * res.col_multipliers[j] * x0(i, j),
                  1e-6 * std::max(1.0, res.x(i, j)));
}

TEST(Ras, DetectsInconsistentTotals) {
  DenseMatrix x0(2, 2, 1.0);
  const auto res = SolveRas(x0, {2.0, 2.0}, {3.0, 3.0});
  EXPECT_EQ(res.status, RasStatus::kInconsistentTotals);
}

TEST(Ras, DetectsInfeasibleSupport) {
  // Zero row in the base with a positive row target: no biproportional fit.
  DenseMatrix x0(2, 2, 0.0);
  x0(0, 0) = 1.0;
  x0(0, 1) = 1.0;
  const auto res = SolveRas(x0, {2.0, 2.0}, {2.0, 2.0});
  EXPECT_EQ(res.status, RasStatus::kInfeasibleSupport);
}

TEST(Ras, StructuralZeroBlockFailsToConverge) {
  // The Mohr-Crown-Polenske phenomenon: a zero block making the targets
  // unreachable on the given support. RAS must not report convergence.
  DenseMatrix x0(2, 2, 0.0);
  x0(0, 0) = 1.0;
  x0(0, 1) = 1.0;
  x0(1, 1) = 1.0;  // x0(1,0) structurally zero
  // Column 0 must reach 5 but only row 0 feeds it, while row 0 total is 2.
  RasOptions opts;
  opts.max_iterations = 2000;
  const auto res = SolveRas(x0, {2.0, 5.0}, {5.0, 2.0}, opts);
  EXPECT_NE(res.status, RasStatus::kConverged);
}

TEST(Ras, RejectsNegativeBaseMatrix) {
  DenseMatrix x0(1, 2, 1.0);
  x0(0, 1) = -0.5;
  EXPECT_THROW(SolveRas(x0, {0.5}, {0.25, 0.25}), InvalidArgument);
}

}  // namespace
}  // namespace sea
