#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "parallel/thread_pool.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/feasibility.hpp"
#include "problems/general_problem.hpp"
#include "problems/solution.hpp"
#include "problems/validate.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix Fill(std::size_t m, std::size_t n, Rng& rng, double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

DiagonalProblem RandomFixed(std::size_t m, std::size_t n, Rng& rng) {
  DenseMatrix x0 = Fill(m, n, rng, 0.1, 10.0);
  DenseMatrix gamma = Fill(m, n, rng, 0.2, 2.0);
  Vector s0 = x0.RowSums();
  Vector d0 = x0.ColSums();
  return DiagonalProblem::MakeFixed(std::move(x0), std::move(gamma),
                                    std::move(s0), std::move(d0));
}

TEST(DiagonalProblem, ValidatesWeightPositivity) {
  DenseMatrix x0(2, 2, 1.0), gamma(2, 2, 1.0);
  gamma(1, 1) = 0.0;
  EXPECT_THROW(DiagonalProblem::MakeFixed(x0, gamma, {2.0, 2.0}, {2.0, 2.0}),
               InvalidArgument);
}

TEST(DiagonalProblem, ValidatesTotalConsistency) {
  DenseMatrix x0(2, 2, 1.0), gamma(2, 2, 1.0);
  EXPECT_THROW(DiagonalProblem::MakeFixed(x0, gamma, {2.0, 2.0}, {3.0, 3.0}),
               InvalidArgument);
  EXPECT_NO_THROW(
      DiagonalProblem::MakeFixed(x0, gamma, {2.0, 2.0}, {2.0, 2.0}));
}

TEST(DiagonalProblem, ValidatesNegativeTotals) {
  DenseMatrix x0(1, 2, 1.0), gamma(1, 2, 1.0);
  EXPECT_THROW(DiagonalProblem::MakeFixed(x0, gamma, {-1.0}, {-0.5, -0.5}),
               InvalidArgument);
}

TEST(DiagonalProblem, SamRequiresSquare) {
  DenseMatrix x0(2, 3, 1.0), gamma(2, 3, 1.0);
  EXPECT_THROW(DiagonalProblem::MakeSam(x0, gamma, {1.0, 1.0}, {1.0, 1.0}),
               InvalidArgument);
}

TEST(DiagonalProblem, NumVariablesPerMode) {
  Rng rng(1);
  const auto fixed = RandomFixed(3, 4, rng);
  EXPECT_EQ(fixed.num_variables(), 12u);

  DenseMatrix x0 = Fill(3, 4, rng, 0.1, 1.0);
  DenseMatrix g = Fill(3, 4, rng, 0.1, 1.0);
  const auto elastic = DiagonalProblem::MakeElastic(
      x0, g, Vector(3, 1.0), Vector(3, 1.0), Vector(4, 1.0), Vector(4, 1.0));
  EXPECT_EQ(elastic.num_variables(), 12u + 3u + 4u);

  DenseMatrix xs = Fill(4, 4, rng, 0.1, 1.0);
  DenseMatrix gs = Fill(4, 4, rng, 0.1, 1.0);
  const auto sam =
      DiagonalProblem::MakeSam(xs, gs, Vector(4, 1.0), Vector(4, 1.0));
  EXPECT_EQ(sam.num_variables(), 16u + 4u);
}

TEST(DiagonalProblem, ObjectiveIsWeightedSquaredDeviation) {
  DenseMatrix x0(1, 2);
  x0(0, 0) = 1.0;
  x0(0, 1) = 2.0;
  DenseMatrix gamma(1, 2);
  gamma(0, 0) = 2.0;
  gamma(0, 1) = 3.0;
  const auto p = DiagonalProblem::MakeFixed(x0, gamma, {3.0}, {1.5, 1.5});
  DenseMatrix x(1, 2);
  x(0, 0) = 2.0;  // dev 1 -> 2*1
  x(0, 1) = 4.0;  // dev 2 -> 3*4
  EXPECT_DOUBLE_EQ(p.Objective(x, {}, {}), 2.0 + 12.0);
}

TEST(RecoverPrimal, FormulasMatchPaper) {
  // Hand problem with known multiplier mapping (eqs. 23a-23c).
  DenseMatrix x0(1, 1);
  x0(0, 0) = 3.0;
  DenseMatrix gamma(1, 1);
  gamma(0, 0) = 0.5;
  const auto p = DiagonalProblem::MakeElastic(x0, gamma, {4.0}, {2.0}, {5.0},
                                              {1.0});
  const auto sol = RecoverPrimal(p, {0.8}, {-0.3});
  // x = max(0, 3 + (0.8 - 0.3) / (2*0.5)) = 3.5
  EXPECT_DOUBLE_EQ(sol.x(0, 0), 3.5);
  // s = 4 - 0.8 / (2*2) = 3.8
  EXPECT_DOUBLE_EQ(sol.s[0], 3.8);
  // d = 5 - (-0.3) / (2*1) = 5.15
  EXPECT_DOUBLE_EQ(sol.d[0], 5.15);
}

TEST(RecoverPrimal, ClampsAtZero) {
  DenseMatrix x0(1, 1);
  x0(0, 0) = 1.0;
  DenseMatrix gamma(1, 1, 1.0);
  const auto p = DiagonalProblem::MakeFixed(x0, gamma, {1.0}, {1.0});
  const auto sol = RecoverPrimal(p, {-10.0}, {0.0});
  EXPECT_DOUBLE_EQ(sol.x(0, 0), 0.0);
}

TEST(DualValue, WeakDualityAgainstFeasiblePoints) {
  // zeta(lambda, mu) <= primal objective of any feasible point, for any
  // multipliers.
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 3, n = 4;
    auto p = RandomFixed(m, n, rng);
    Vector lambda = rng.UniformVector(m, -3.0, 3.0);
    Vector mu = rng.UniformVector(n, -3.0, 3.0);
    const double dual = DualValue(p, lambda, mu);
    // Feasible point: the base matrix itself (totals are its sums).
    const double primal = p.Objective(p.x0(), {}, {});
    EXPECT_LE(dual, primal + 1e-9);
  }
}

TEST(DualValue, TightAtLagrangianMinimizer) {
  // By construction zeta(lambda,mu) = min_x L(x,lambda,mu); evaluating L at
  // RecoverPrimal's x must reproduce zeta exactly.
  Rng rng(8);
  const std::size_t m = 2, n = 3;
  auto p = RandomFixed(m, n, rng);
  Vector lambda = rng.UniformVector(m, -2.0, 2.0);
  Vector mu = rng.UniformVector(n, -2.0, 2.0);
  const auto sol = RecoverPrimal(p, lambda, mu);
  double lagr = p.Objective(sol.x, {}, {});
  for (std::size_t i = 0; i < m; ++i) {
    double rowsum = 0.0;
    for (double v : sol.x.Row(i)) rowsum += v;
    lagr -= lambda[i] * (rowsum - p.s0()[i]);
  }
  for (std::size_t j = 0; j < n; ++j) {
    double colsum = 0.0;
    for (std::size_t i = 0; i < m; ++i) colsum += sol.x(i, j);
    lagr -= mu[j] * (colsum - p.d0()[j]);
  }
  EXPECT_NEAR(lagr, DualValue(p, lambda, mu), 1e-9);
}

TEST(Feasibility, ReportsResiduals) {
  DenseMatrix x(2, 2);
  x(0, 0) = 1.0;
  x(0, 1) = 2.0;
  x(1, 0) = 3.0;
  x(1, 1) = 4.0;
  const auto r = CheckFeasibility(x, {3.0, 8.0}, {4.0, 5.0});
  EXPECT_DOUBLE_EQ(r.max_row_abs, 1.0);   // row 1: 7 vs 8
  EXPECT_DOUBLE_EQ(r.max_col_abs, 1.0);   // col 1: 6 vs 5
  EXPECT_DOUBLE_EQ(r.min_x, 0.0);
  EXPECT_NEAR(r.max_row_rel, 1.0 / 8.0, 1e-12);
}

TEST(Feasibility, KktStationarityDetectsViolation) {
  Rng rng(9);
  auto p = RandomFixed(2, 2, rng);
  Solution sol;
  sol.x = p.x0();
  sol.s = p.s0();
  sol.d = p.d0();
  sol.lambda = {0.0, 0.0};
  sol.mu = {0.0, 0.0};
  // x0 with zero multipliers is stationary (gradient 2gamma(x-x0)=0).
  EXPECT_NEAR(KktStationarityError(p, sol), 0.0, 1e-12);
  sol.lambda = {1.0, 0.0};  // now stationarity is violated on row 0
  EXPECT_GT(KktStationarityError(p, sol), 0.5);
}

// ---------------------------------------------------------------------------
// ValidateProblem: structured pre-flight diagnoses (docs/ROBUSTNESS.md).

TEST(ValidateProblem, CleanProblemReportsOk) {
  Rng rng(20);
  const auto p = RandomFixed(3, 4, rng);
  const auto report = ValidateProblem(p);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.Summary().empty());
}

TEST(ValidateProblem, FlagsDimensionMismatch) {
  DenseMatrix x0(2, 2, 1.0), gamma(2, 2, 1.0);
  const auto report =
      ValidateProblem(x0, gamma, Vector{2.0, 2.0, 1.0}, Vector{2.0, 2.0});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(DiagnosisCode::kDimensionMismatch));
}

TEST(ValidateProblem, FlagsNonFiniteEntryWithLocation) {
  DenseMatrix x0(2, 2, 1.0), gamma(2, 2, 1.0);
  x0(1, 0) = std::nan("");
  const auto report =
      ValidateProblem(x0, gamma, Vector{2.0, 2.0}, Vector{2.0, 2.0});
  ASSERT_TRUE(report.Has(DiagnosisCode::kNonFiniteEntry));
  for (const auto& d : report.diagnoses)
    if (d.code == DiagnosisCode::kNonFiniteEntry) {
      EXPECT_EQ(d.row, 1u);
      EXPECT_EQ(d.col, 0u);
    }
}

TEST(ValidateProblem, FlagsNonPositiveWeight) {
  DenseMatrix x0(2, 2, 1.0), gamma(2, 2, 1.0);
  gamma(0, 1) = 0.0;
  const auto report =
      ValidateProblem(x0, gamma, Vector{2.0, 2.0}, Vector{2.0, 2.0});
  EXPECT_TRUE(report.Has(DiagnosisCode::kNonPositiveWeight));
}

TEST(ValidateProblem, FlagsNegativeEntryAndImbalance) {
  DenseMatrix x0(2, 2, 1.0), gamma(2, 2, 1.0);
  x0(0, 0) = -1.0;
  const auto report =
      ValidateProblem(x0, gamma, Vector{2.0, 2.0}, Vector{3.0, 3.0});
  EXPECT_TRUE(report.Has(DiagnosisCode::kNegativeEntry));
  EXPECT_TRUE(report.Has(DiagnosisCode::kTotalsImbalance));
}

TEST(ValidateProblem, FlagsZeroSupportRowAndColumn) {
  DenseMatrix x0(2, 2, 1.0), gamma(2, 2, 1.0);
  x0(0, 0) = 0.0;
  x0(0, 1) = 0.0;  // row 0 all zero, yet s0[0] > 0
  const auto report =
      ValidateProblem(x0, gamma, Vector{1.0, 3.0}, Vector{2.0, 2.0});
  ASSERT_TRUE(report.Has(DiagnosisCode::kZeroSupportRow));
  for (const auto& d : report.diagnoses)
    if (d.code == DiagnosisCode::kZeroSupportRow) {
      EXPECT_EQ(d.row, 0u);
    }
}

TEST(ValidateProblem, AccumulatesMultipleDiagnosesInOneReport) {
  // Several independent defects must all surface in a single pass — the
  // whole point of ValidateProblem over Validate()'s throw-on-first.
  DenseMatrix x0(2, 2, 1.0), gamma(2, 2, 1.0);
  x0(0, 0) = -1.0;
  gamma(1, 1) = -2.0;
  const auto report =
      ValidateProblem(x0, gamma, Vector{2.0, 2.0}, Vector{5.0, 5.0});
  EXPECT_GE(report.diagnoses.size(), 3u);
  EXPECT_TRUE(report.Has(DiagnosisCode::kNegativeEntry));
  EXPECT_TRUE(report.Has(DiagnosisCode::kNonPositiveWeight));
  EXPECT_TRUE(report.Has(DiagnosisCode::kTotalsImbalance));
  // Summary: one line per diagnosis, each naming its code.
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find(ToString(DiagnosisCode::kNonPositiveWeight)),
            std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(summary.begin(), summary.end(), '\n')) +
                1,
            report.diagnoses.size());
}

// ---------------------------------------------------------------------------
// General problem.

TEST(GeneralProblem, DeviationFormMatchesExplicitObjective) {
  Rng rng(10);
  const std::size_t m = 2, n = 3, mn = m * n;
  DenseMatrix g(mn, mn, 0.0);
  for (std::size_t k = 0; k < mn; ++k) g(k, k) = rng.Uniform(1.0, 3.0);
  for (std::size_t a = 0; a < mn; ++a)
    for (std::size_t b = a + 1; b < mn; ++b) {
      const double v = rng.Uniform(-0.1, 0.1);
      g(a, b) = v;
      g(b, a) = v;
    }
  DenseMatrix x0 = Fill(m, n, rng, 0.5, 2.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  const auto p = GeneralProblem::MakeFixedFromCenters(x0, g, s0, d0);

  // Objective at arbitrary x equals (x-x0)^T G (x-x0).
  Vector x = rng.UniformVector(mn, 0.0, 3.0);
  double expected = 0.0;
  for (std::size_t a = 0; a < mn; ++a)
    for (std::size_t b = 0; b < mn; ++b)
      expected += (x[a] - x0.Flat()[a]) * g(a, b) * (x[b] - x0.Flat()[b]);
  EXPECT_NEAR(p.Objective(x, {}, {}), expected, 1e-9);

  // Zero at the center.
  Vector xc(x0.Flat().begin(), x0.Flat().end());
  EXPECT_NEAR(p.Objective(xc, {}, {}), 0.0, 1e-9);
}

TEST(GeneralProblem, GradientMatchesFiniteDifference) {
  Rng rng(11);
  const std::size_t m = 2, n = 2, mn = 4;
  DenseMatrix g(mn, mn, 0.0);
  for (std::size_t k = 0; k < mn; ++k) g(k, k) = 2.0 + double(k);
  g(0, 1) = g(1, 0) = 0.3;
  Vector cx = rng.UniformVector(mn, -1.0, 1.0);
  const auto p =
      GeneralProblem::MakeFixed(m, n, g, cx, {2.0, 2.0}, {2.0, 2.0});

  Vector x = rng.UniformVector(mn, 0.0, 2.0);
  Vector grad;
  p.GradientX(x, grad);
  const double h = 1e-6;
  for (std::size_t k = 0; k < mn; ++k) {
    Vector xp = x, xm = x;
    xp[k] += h;
    xm[k] -= h;
    const double fd =
        (p.Objective(xp, {}, {}) - p.Objective(xm, {}, {})) / (2.0 * h);
    EXPECT_NEAR(grad[k], fd, 1e-4);
  }
}

TEST(GeneralProblem, DiagonalizeFixedPointProperty) {
  // At any iterate z, the diagonalized subproblem's gradient at z equals the
  // original gradient at z (the projection method's defining property).
  Rng rng(12);
  const std::size_t m = 2, n = 3, mn = 6;
  DenseMatrix g(mn, mn, 0.0);
  for (std::size_t k = 0; k < mn; ++k) g(k, k) = rng.Uniform(2.0, 4.0);
  for (std::size_t a = 0; a < mn; ++a)
    for (std::size_t b = a + 1; b < mn; ++b) {
      const double v = rng.Uniform(-0.2, 0.2);
      g(a, b) = v;
      g(b, a) = v;
    }
  DenseMatrix x0 = Fill(m, n, rng, 0.5, 2.0);
  const auto p = GeneralProblem::MakeFixedFromCenters(x0, g, x0.RowSums(),
                                                      x0.ColSums());
  Vector z = rng.UniformVector(mn, 0.0, 3.0);
  const auto diag = p.Diagonalize(z, {}, {});

  Vector grad;
  p.GradientX(z, grad);
  for (std::size_t k = 0; k < mn; ++k) {
    // Subproblem gradient: 2 gamma_k (z_k - c_k).
    const double sub =
        2.0 * diag.gamma().Flat()[k] * (z[k] - diag.x0().Flat()[k]);
    EXPECT_NEAR(sub, grad[k], 1e-9);
  }
}

TEST(GeneralProblem, ValidatesShapes) {
  DenseMatrix g(4, 4, 0.0);
  for (int k = 0; k < 4; ++k) g(k, k) = 1.0;
  EXPECT_THROW(
      GeneralProblem::MakeFixed(2, 2, g, Vector(3, 0.0), {1, 1}, {1, 1}),
      InvalidArgument);
  EXPECT_THROW(
      GeneralProblem::MakeFixed(2, 2, g, Vector(4, 0.0), {1, 1}, {2, 2}),
      InvalidArgument);
}

// Objective's pooled G matvec computes one Dot per row of G, as the serial
// Gemv does, so the value keeps its bits at any thread count, including
// counts above the number of rows.
class GeneralObjectiveOnPool
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(GeneralObjectiveOnPool, BitIdenticalToSerial) {
  const auto [m, n, threads] = GetParam();
  const std::size_t mn = m * n;
  Rng rng(14 + mn);
  DenseMatrix g(mn, mn, 0.0);
  for (std::size_t a = 0; a < mn; ++a) {
    g(a, a) = rng.Uniform(1.0, 3.0);
    for (std::size_t b = a + 1; b < mn; ++b)
      g(a, b) = g(b, a) = rng.Uniform(-0.1, 0.1);
  }
  const DenseMatrix x0 = Fill(m, n, rng, 0.5, 2.0);
  const auto p =
      GeneralProblem::MakeFixedFromCenters(x0, g, x0.RowSums(), x0.ColSums());
  const Vector x = rng.UniformVector(mn, 0.0, 3.0);
  ThreadPool pool(threads);
  const double serial = p.Objective(x, {}, {});
  const double pooled = p.Objective(x, {}, {}, &pool);
  EXPECT_EQ(std::memcmp(&serial, &pooled, sizeof(double)), 0)
      << serial << " vs " << pooled;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndThreads, GeneralObjectiveOnPool,
    ::testing::Combine(::testing::Values(1u, 7u), ::testing::Values(1u, 3u),
                       ::testing::Values(2u, 3u, 4u)));

TEST(GeneralProblem, ElasticObjectiveOnPoolBitIdenticalToSerial) {
  Rng rng(15);
  const std::size_t m = 3, n = 4, mn = m * n;
  DenseMatrix g = DenseMatrix::Identity(mn);
  for (std::size_t k = 0; k + 1 < mn; ++k) g(k, k + 1) = g(k + 1, k) = 0.2;
  const DenseMatrix x0 = Fill(m, n, rng, 0.5, 2.0);
  const auto p = GeneralProblem::MakeElasticFromCenters(
      x0, g, x0.RowSums(), DenseMatrix::Identity(m), x0.ColSums(),
      DenseMatrix::Identity(n));
  const Vector x = rng.UniformVector(mn, 0.0, 3.0);
  const Vector s = rng.UniformVector(m, 1.0, 5.0);
  const Vector d = rng.UniformVector(n, 1.0, 5.0);
  ThreadPool pool(4);
  const double serial = p.Objective(x, s, d);
  const double pooled = p.Objective(x, s, d, &pool);
  EXPECT_EQ(std::memcmp(&serial, &pooled, sizeof(double)), 0)
      << serial << " vs " << pooled;
}

TEST(GeneralProblem, ElasticGradientsCoverTotals) {
  Rng rng(13);
  const std::size_t m = 2, n = 2, mn = 4;
  DenseMatrix g = DenseMatrix::Identity(mn);
  DenseMatrix a = DenseMatrix::Identity(m);
  DenseMatrix b = DenseMatrix::Identity(n);
  DenseMatrix x0 = Fill(m, n, rng, 0.5, 2.0);
  const auto p = GeneralProblem::MakeElasticFromCenters(
      x0, g, {1.0, 2.0}, a, {1.5, 1.5}, b);

  Vector s{3.0, 4.0}, gs;
  p.GradientS(s, gs);
  // d/ds (s - s0)^T A (s - s0) = 2 (s - s0) for A = I.
  EXPECT_NEAR(gs[0], 2.0 * (3.0 - 1.0), 1e-12);
  EXPECT_NEAR(gs[1], 2.0 * (4.0 - 2.0), 1e-12);

  Vector d{0.5, 2.5}, gd;
  p.GradientD(d, gd);
  EXPECT_NEAR(gd[0], 2.0 * (0.5 - 1.5), 1e-12);
  EXPECT_NEAR(gd[1], 2.0 * (2.5 - 1.5), 1e-12);
}

}  // namespace
}  // namespace sea
