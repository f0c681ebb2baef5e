// Tests exercising the paper's Section 3.1 convergence theory:
//   * dual ascent monotonicity (eq. (71)),
//   * geometric convergence of the dual gap (eq. (76)),
//   * additive iteration growth when the tolerance tightens by 10x
//     (eq. (77): T-bar is logarithmic in epsilon),
//   * the operation-count model N = T * n^2 (9 + log n) shape.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/diagonal_sea.hpp"
#include "equilibration/breakpoint_solver.hpp"
#include "equilibration/equilibrator.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/feasibility.hpp"
#include "problems/solution.hpp"
#include "sparse/sparse_sea.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix Fill(std::size_t m, std::size_t n, Rng& rng, double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

DiagonalProblem HardElastic(std::size_t n, Rng& rng) {
  DenseMatrix x0 = Fill(n, n, rng, 0.1, 50.0);
  DenseMatrix gamma = Fill(n, n, rng, 0.02, 2.0);
  Vector s0 = x0.RowSums();
  Vector d0 = x0.ColSums();
  for (double& v : s0) v *= rng.Uniform(0.7, 1.6);
  for (double& v : d0) v *= rng.Uniform(0.7, 1.6);
  return DiagonalProblem::MakeElastic(std::move(x0), std::move(gamma),
                                      std::move(s0),
                                      rng.UniformVector(n, 0.05, 1.0),
                                      std::move(d0),
                                      rng.UniformVector(n, 0.05, 1.0));
}

TEST(ConvergenceTheory, DualValuesMonotoneNondecreasing) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const auto p = HardElastic(12, rng);
    SeaOptions o;
    o.epsilon = 1e-9;
    o.criterion = StopCriterion::kResidualAbs;
    o.record_dual_values = true;
    const auto run = SolveDiagonal(p, o);
    ASSERT_TRUE(run.result.converged());
    ASSERT_GE(run.result.dual_values.size(), 2u);
    for (std::size_t t = 1; t < run.result.dual_values.size(); ++t)
      EXPECT_GE(run.result.dual_values[t],
                run.result.dual_values[t - 1] - 1e-9)
          << "iteration " << t;
  }
}

// Elastic solves record zeta from the column sweep's market shares
// (docs/KERNELS.md, "ζ from the sweep"). A solve stopped at max_iterations
// = t ends at the duals its t-th recorded value describes, so each value
// is checked against the serial DualValue there; the values must have the
// same bits at 1, 2 and 4 threads.
template <class Problem, class SolveFn>
void ExpectSweptZetaMatchesDualValue(const Problem& p, SolveFn solve) {
  SeaOptions o;
  o.epsilon = 1e-9;
  o.criterion = StopCriterion::kResidualAbs;
  o.record_dual_values = true;
  const auto full = solve(p, o);
  ASSERT_TRUE(full.result.converged());
  const std::vector<double>& zeta = full.result.dual_values;
  ASSERT_GE(zeta.size(), 4u);
  for (std::size_t t = 1; t <= zeta.size(); ++t) {
    SeaOptions prefix = o;
    prefix.max_iterations = t;
    const auto run = solve(p, prefix);
    ASSERT_EQ(run.result.dual_values.size(), t);
    EXPECT_EQ(run.result.dual_values.back(), zeta[t - 1]) << "t=" << t;
    const double serial =
        DualValue(p, run.solution.lambda, run.solution.mu);
    EXPECT_LE(std::abs(zeta[t - 1] - serial), 1e-12 * std::abs(serial))
        << "t=" << t << " swept=" << zeta[t - 1] << " serial=" << serial;
  }
  ThreadPool pool2(2), pool4(4);
  for (ThreadPool* pool : {&pool2, &pool4}) {
    SeaOptions pooled = o;
    pooled.pool = pool;
    const auto run = solve(p, pooled);
    ASSERT_EQ(run.result.dual_values.size(), zeta.size());
    for (std::size_t t = 0; t < zeta.size(); ++t)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(run.result.dual_values[t]),
                std::bit_cast<std::uint64_t>(zeta[t]))
          << "t=" << t << " threads=" << pool->num_threads();
  }
}

TEST(ConvergenceTheory, SweptZetaMatchesDualValueDense) {
  Rng rng(11);
  const auto p = HardElastic(24, rng);
  ExpectSweptZetaMatchesDualValue(p, [](const DiagonalProblem& q,
                                        const SeaOptions& o) {
    return SolveDiagonal(q, o);
  });
}

TEST(ConvergenceTheory, SweptZetaMatchesDualValueSparse) {
  // A random pattern with one empty row and one empty column: their
  // markets have no arcs, so their shares are their totals terms alone.
  Rng rng(12);
  const std::size_t m = 20, n = 16;
  DenseMatrix x0 = Fill(m, n, rng, 0.1, 50.0);
  for (double& v : x0.Flat())
    if (rng.Uniform(0.0, 1.0) < 0.4) v = 0.0;
  for (std::size_t j = 0; j < n; ++j) x0(5, j) = 0.0;
  for (std::size_t i = 0; i < m; ++i) x0(i, 9) = 0.0;
  DenseMatrix gamma = x0;
  for (double& v : gamma.Flat())
    if (v > 0.0) v = rng.Uniform(0.02, 2.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v = v * rng.Uniform(0.7, 1.6) + 1.0;
  for (double& v : d0) v = v * rng.Uniform(0.7, 1.6) + 1.0;
  const auto p = SparseDiagonalProblem::MakeElastic(
      SparseMatrix::FromDense(x0), SparseMatrix::FromDense(gamma), s0,
      rng.UniformVector(m, 0.05, 1.0), d0, rng.UniformVector(n, 0.05, 1.0));
  ASSERT_TRUE(p.x0().RowCols(5).empty());
  ExpectSweptZetaMatchesDualValue(p, [](const SparseDiagonalProblem& q,
                                        const SeaOptions& o) {
    return SolveSparse(q, o);
  });
}

TEST(ConvergenceTheory, StrongDualityAtConvergence) {
  Rng rng(2);
  const auto p = HardElastic(10, rng);
  SeaOptions o;
  o.epsilon = 1e-10;
  o.criterion = StopCriterion::kResidualAbs;
  o.record_dual_values = true;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  // Final dual value equals the primal objective (zero duality gap).
  EXPECT_NEAR(run.result.dual_values.back(), run.result.objective,
              1e-6 * std::max(1.0, std::abs(run.result.objective)));
}

TEST(ConvergenceTheory, DualGapDecreasesGeometrically) {
  // delta^{t+1} <= q * delta^t for some q < 1 (eq. (76)); estimate the
  // empirical ratio over the tail of the run and require it be < 1.
  Rng rng(3);
  const auto p = HardElastic(15, rng);
  SeaOptions o;
  o.epsilon = 1e-11;
  o.criterion = StopCriterion::kResidualAbs;
  o.record_dual_values = true;
  o.max_iterations = 100000;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  const auto& vals = run.result.dual_values;
  ASSERT_GE(vals.size(), 6u);
  const double zstar = vals.back();
  // Use gaps a few iterations from the end (before floating-point floor).
  int checked = 0;
  for (std::size_t t = 1; t + 3 < vals.size(); ++t) {
    const double gap_prev = zstar - vals[t - 1];
    const double gap = zstar - vals[t];
    if (gap_prev <= 1e-12 * std::abs(zstar)) break;
    EXPECT_LE(gap, gap_prev * (1.0 + 1e-12));
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(ConvergenceTheory, TighterEpsilonCostsAdditiveIterations) {
  // Eq. (77): iterations grow ~ log(1/eps); tightening eps by 10 adds a
  // roughly constant number of iterations, far from multiplying them.
  Rng rng(4);
  const auto p = HardElastic(20, rng);
  std::vector<std::size_t> iters;
  for (double eps : {1e-2, 1e-3, 1e-4, 1e-5}) {
    SeaOptions o;
    o.epsilon = eps;
    o.criterion = StopCriterion::kResidualAbs;
    const auto run = SolveDiagonal(p, o);
    ASSERT_TRUE(run.result.converged());
    iters.push_back(run.result.iterations);
  }
  // Monotone in tightening ...
  for (std::size_t k = 1; k < iters.size(); ++k)
    EXPECT_GE(iters[k], iters[k - 1]);
  // ... and additive: the increment per decade stabilizes rather than
  // multiplying. Allow generous slack; geometric convergence implies the
  // last increment is no more than ~3x the earlier one plus a constant.
  const auto inc1 =
      static_cast<double>(iters[2]) - static_cast<double>(iters[1]);
  const auto inc2 =
      static_cast<double>(iters[3]) - static_cast<double>(iters[2]);
  EXPECT_LE(inc2, 3.0 * std::max(inc1, 2.0) + 4.0);
}

TEST(ConvergenceTheory, IterationsInsensitiveToScale) {
  // The rate depends on weight ratios (m_l / M_l), not the absolute scale:
  // scaling all weights by 100 must not change the trajectory.
  Rng rng(5);
  DenseMatrix x0 = Fill(10, 10, rng, 0.1, 10.0);
  DenseMatrix gamma = Fill(10, 10, rng, 0.1, 1.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.5;
  for (double& v : d0) v *= 1.5;

  const auto p1 = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
  DenseMatrix gamma_scaled = gamma;
  for (double& v : gamma_scaled.Flat()) v *= 100.0;
  const auto p2 = DiagonalProblem::MakeFixed(x0, gamma_scaled, s0, d0);

  SeaOptions o;
  o.epsilon = 1e-8;
  o.criterion = StopCriterion::kResidualAbs;
  const auto r1 = SolveDiagonal(p1, o);
  const auto r2 = SolveDiagonal(p2, o);
  ASSERT_TRUE(r1.result.converged());
  ASSERT_TRUE(r2.result.converged());
  EXPECT_EQ(r1.result.iterations, r2.result.iterations);
  EXPECT_LT(r1.solution.x.MaxAbsDiff(r2.solution.x), 1e-6);
}

TEST(ConvergenceTheory, FixedProblemsConvergeInFewIterations) {
  // The paper observed 1-2 iterations for fixed-totals problems with
  // proportional totals (mu = 0 is near-optimal); reproduce that regime.
  Rng rng(6);
  DenseMatrix x0 = Fill(30, 30, rng, 0.1, 10000.0);
  DenseMatrix gamma(30, 30);
  for (std::size_t k = 0; k < 900; ++k)
    gamma.Flat()[k] = 1.0 / x0.Flat()[k];
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 2.0;
  for (double& v : d0) v *= 2.0;
  const auto p = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
  SeaOptions o;
  o.epsilon = 1e-2;
  o.criterion = StopCriterion::kXChange;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  EXPECT_LE(run.result.iterations, 6u);
}

TEST(ConvergenceTheory, OperationCountTracksComplexityModel) {
  // Per-iteration work ~ n^2 (9 + log n) with the paper's HEAPSORT (Section
  // 4.1.1): the ops of one row+column sweep pair, every market solved with a
  // forced heapsort as on the paper's first sweep, should grow roughly like
  // n^2 log n between sizes. (The solver itself cold-sorts long markets by
  // radix and repairs after that, so it does not follow this model.)
  Rng rng(7);
  auto ops_for = [&rng](std::size_t n) {
    const DenseMatrix x0 = Fill(n, n, rng, 0.1, 100.0);
    const DenseMatrix x0_t = x0.Transposed();
    const DenseMatrix slopes = ArcSlopes(DenseMatrix(n, n, 1.0));
    const Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    const Vector zero(n, 0.0);
    Vector lambda(n);
    OpCounts ops;
    BreakpointWorkspace ws;
    ws.Resize(n);
    // Row sweep against mu = 0, then the column sweep against its lambda.
    for (std::size_t i = 0; i < n; ++i) {
      BuildArcs(x0.Row(i), slopes.Row(i), zero, ws.p(), ws.q());
      const auto r = SolveMarket(ws, s0[i], 0.0, ColdSort::kHeapsort);
      lambda[i] = r.lambda;
      ops += r.ops;
    }
    for (std::size_t j = 0; j < n; ++j) {
      BuildArcs(x0_t.Row(j), slopes.Row(j), lambda, ws.p(), ws.q());
      ops += SolveMarket(ws, d0[j], 0.0, ColdSort::kHeapsort).ops;
    }
    return ops.Work();
  };
  const double w200 = ops_for(200);
  const double w400 = ops_for(400);
  const double model200 = 200.0 * 200.0 * (9.0 + std::log2(200.0));
  const double model400 = 400.0 * 400.0 * (9.0 + std::log2(400.0));
  const double measured_ratio = w400 / w200;
  const double model_ratio = model400 / model200;
  EXPECT_NEAR(measured_ratio, model_ratio, 0.35 * model_ratio);
}

}  // namespace
}  // namespace sea
