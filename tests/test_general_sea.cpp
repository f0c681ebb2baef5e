#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/diagonal_sea.hpp"
#include "core/general_sea.hpp"
#include "datasets/general_dense.hpp"
#include "linalg/spd_generators.hpp"
#include "problems/feasibility.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix Fill(std::size_t m, std::size_t n, Rng& rng, double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

GeneralSeaOptions TightGeneral() {
  GeneralSeaOptions o;
  o.outer_epsilon = 1e-7;
  o.inner.criterion = StopCriterion::kResidualAbs;
  o.inner.max_iterations = 200000;
  o.max_outer_iterations = 3000;
  return o;
}

TEST(GeneralSea, DiagonalGMatchesDiagonalSea) {
  // When G is diagonal, one projection step is exact: general SEA must
  // reproduce diagonal SEA's solution.
  Rng rng(1);
  const std::size_t m = 4, n = 5, mn = m * n;
  DenseMatrix x0 = Fill(m, n, rng, 0.5, 20.0);
  DenseMatrix gamma = Fill(m, n, rng, 0.5, 2.0);
  Vector s0 = x0.RowSums();
  Vector d0 = x0.ColSums();
  for (double& v : s0) v *= 1.3;
  for (double& v : d0) v *= 1.3;

  DenseMatrix g(mn, mn, 0.0);
  for (std::size_t k = 0; k < mn; ++k) g(k, k) = gamma.Flat()[k];
  const auto gen = GeneralProblem::MakeFixedFromCenters(x0, g, s0, d0);
  const auto dia = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);

  const auto run_gen = SolveGeneral(gen, TightGeneral());
  SeaOptions o;
  o.epsilon = 1e-9;
  o.criterion = StopCriterion::kResidualAbs;
  const auto run_dia = SolveDiagonal(dia, o);

  EXPECT_TRUE(run_gen.result.converged());
  EXPECT_LT(run_gen.solution.x.MaxAbsDiff(run_dia.solution.x), 1e-4);
  // With an exact first projection step, SEA needs very few outer steps.
  EXPECT_LE(run_gen.result.outer_iterations, 3u);
}

TEST(GeneralSea, FixedProblemsAreFeasibleAndStationary) {
  Rng rng(2);
  for (std::size_t size : {4u, 6u}) {
    const auto p = datasets::MakeGeneralDense(size, size, rng);
    const auto run = SolveGeneral(p, TightGeneral());
    ASSERT_TRUE(run.result.converged()) << size;
    const auto rep = CheckFeasibility(run.solution.x, p.s0(), p.d0());
    EXPECT_LT(rep.MaxRel(), 1e-4) << size;
    EXPECT_GE(rep.min_x, 0.0);
    // Multipliers from the final inner solve approximate the true KKT
    // multipliers of the general problem.
    EXPECT_LT(KktStationarityError(p, run.solution),
              1e-3 * (1.0 + std::abs(run.result.objective)));
  }
}

TEST(GeneralSea, ElasticRegimeConverges) {
  Rng rng(3);
  const std::size_t m = 4, n = 4, mn = m * n;
  DenseMatrix x0 = Fill(m, n, rng, 1.0, 10.0);
  Rng grng = rng.Split();
  DenseMatrix g = MakeDiagonallyDominantSpd(mn, grng, {.diag_lo = 5.0,
                                                       .diag_hi = 8.0,
                                                       .offdiag_scale = 0.2});
  DenseMatrix a = MakeDiagonallyDominantSpd(m, grng, {.diag_lo = 2.0,
                                                      .diag_hi = 3.0,
                                                      .offdiag_scale = 0.1});
  DenseMatrix b = MakeDiagonallyDominantSpd(n, grng, {.diag_lo = 2.0,
                                                      .diag_hi = 3.0,
                                                      .offdiag_scale = 0.1});
  Vector s0 = x0.RowSums();
  Vector d0 = x0.ColSums();
  for (double& v : s0) v *= 1.2;
  for (double& v : d0) v *= 0.9;
  const auto p = GeneralProblem::MakeElasticFromCenters(x0, g, s0, a, d0, b);

  const auto run = SolveGeneral(p, TightGeneral());
  ASSERT_TRUE(run.result.converged());
  const auto rep =
      CheckFeasibility(run.solution.x, run.solution.s, run.solution.d);
  EXPECT_LT(rep.MaxAbs(), 1e-4);
  EXPECT_LT(KktStationarityError(p, run.solution),
            1e-3 * (1.0 + std::abs(run.result.objective)));
}

TEST(GeneralSea, SamRegimeConverges) {
  Rng rng(4);
  const std::size_t n = 4, nn = n * n;
  DenseMatrix x0 = Fill(n, n, rng, 1.0, 10.0);
  Rng grng = rng.Split();
  DenseMatrix g = MakeDiagonallyDominantSpd(nn, grng, {.diag_lo = 5.0,
                                                       .diag_hi = 8.0,
                                                       .offdiag_scale = 0.2});
  DenseMatrix a = MakeDiagonallyDominantSpd(n, grng, {.diag_lo = 2.0,
                                                      .diag_hi = 3.0,
                                                      .offdiag_scale = 0.1});
  Vector s0(n);
  const Vector rows = x0.RowSums(), cols = x0.ColSums();
  for (std::size_t i = 0; i < n; ++i) s0[i] = 0.5 * (rows[i] + cols[i]);
  const auto p = GeneralProblem::MakeSamFromCenters(x0, g, s0, a);

  const auto run = SolveGeneral(p, TightGeneral());
  ASSERT_TRUE(run.result.converged());
  // Row total i equals column total i.
  for (std::size_t i = 0; i < n; ++i) {
    double rs = 0.0, cs = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      rs += run.solution.x(i, j);
      cs += run.solution.x(j, i);
    }
    EXPECT_NEAR(rs, cs, 1e-4);
  }
  EXPECT_LT(KktStationarityError(p, run.solution),
            1e-3 * (1.0 + std::abs(run.result.objective)));
}

TEST(GeneralSea, FeasibleStartIsFeasible) {
  Rng rng(5);
  const auto p = datasets::MakeGeneralDense(5, 7, rng);
  Vector x, s, d;
  FeasibleStart(p, x, s, d);
  DenseMatrix xm(5, 7);
  std::copy(x.begin(), x.end(), xm.Flat().begin());
  const auto rep = CheckFeasibility(xm, p.s0(), p.d0());
  EXPECT_LT(rep.MaxAbs(), 1e-8);
  EXPECT_GE(rep.min_x, 0.0);
}

TEST(GeneralSea, ObjectiveDecreasesAcrossTolerances) {
  // Tighter outer tolerance cannot yield a larger objective (monotone
  // refinement toward the optimum).
  Rng rng(6);
  const auto p = datasets::MakeGeneralDense(4, 4, rng);
  GeneralSeaOptions loose = TightGeneral();
  loose.outer_epsilon = 1e-2;
  GeneralSeaOptions tight = TightGeneral();
  tight.outer_epsilon = 1e-8;
  const auto run_loose = SolveGeneral(p, loose);
  const auto run_tight = SolveGeneral(p, tight);
  ASSERT_TRUE(run_loose.result.converged());
  ASSERT_TRUE(run_tight.result.converged());
  EXPECT_LE(run_tight.result.objective,
            run_loose.result.objective +
                1e-6 * std::abs(run_loose.result.objective));
}

TEST(GeneralSea, ObjectiveIsProblemObjectiveAtSolution) {
  Rng rng(7);
  const auto p = datasets::MakeGeneralDense(3, 3, rng);
  const auto run = SolveGeneral(p, TightGeneral());
  ASSERT_TRUE(run.result.converged());
  const Vector x(run.solution.x.Flat().begin(), run.solution.x.Flat().end());
  const double direct = p.Objective(x, run.solution.s, run.solution.d);
  EXPECT_EQ(std::memcmp(&direct, &run.result.objective, sizeof(double)), 0)
      << direct << " vs " << run.result.objective;
}

TEST(GeneralSea, StrongerDominanceConvergesFaster) {
  // The projection method's contraction improves as the diagonal dominates;
  // nearly diagonal G should need fewer outer iterations than a strongly
  // coupled one.
  Rng rng(8);
  const std::size_t m = 4, n = 4, mn = 16;
  DenseMatrix x0 = Fill(m, n, rng, 1.0, 10.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();

  auto make = [&](double offdiag) {
    Rng grng(99);
    return GeneralProblem::MakeFixedFromCenters(
        x0,
        MakeDiagonallyDominantSpd(mn, grng, {.diag_lo = 500.0,
                                             .diag_hi = 800.0,
                                             .offdiag_scale = offdiag}),
        s0, d0);
  };
  const auto weak = SolveGeneral(make(0.01), TightGeneral());
  const auto strong = SolveGeneral(make(25.0), TightGeneral());
  ASSERT_TRUE(weak.result.converged());
  ASSERT_TRUE(strong.result.converged());
  EXPECT_LE(weak.result.outer_iterations, strong.result.outer_iterations);
}

}  // namespace
}  // namespace sea
