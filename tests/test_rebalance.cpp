// Tests for the paper's "Modified Algorithm" (Section 3.1): bounded dual
// iterates via connected-component multiplier rebalancing.
#include <gtest/gtest.h>

#include <cmath>

#include "core/diagonal_sea.hpp"
#include "core/multiplier_rebalance.hpp"
#include "problems/feasibility.hpp"
#include "problems/solution.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix Fill(std::size_t m, std::size_t n, Rng& rng, double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

// A block-diagonal fixed problem: two decoupled 2x2 blocks, so the support
// graph has (at least) two components.
DiagonalProblem TwoBlockProblem() {
  DenseMatrix x0(4, 4, 0.0);
  DenseMatrix gamma(4, 4, 1.0);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      x0(i, j) = 5.0 + double(i + j);
      x0(2 + i, 2 + j) = 3.0 + double(i * j);
    }
  // Keep the zero blocks structurally zero with stiff weights.
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      if (x0(i, j) == 0.0) gamma(i, j) = 1e6;
  return DiagonalProblem::MakeFixed(x0, gamma, x0.RowSums(), x0.ColSums());
}

TEST(SupportComponents, IdentifiesBlocks) {
  const auto p = TwoBlockProblem();
  // At lambda = mu = 0 the support is exactly the two positive blocks.
  std::vector<std::size_t> comp;
  const std::size_t n_comp =
      SupportComponents(p, Vector(4, 0.0), Vector(4, 0.0), comp);
  EXPECT_EQ(n_comp, 2u);
  // Rows 0,1 + cols 0,1 together; rows 2,3 + cols 2,3 together.
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[0], comp[4]);
  EXPECT_EQ(comp[0], comp[5]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[2], comp[6]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(SupportComponents, FullyDenseIsOneComponent) {
  Rng rng(1);
  DenseMatrix x0 = Fill(3, 5, rng, 1.0, 5.0);
  DenseMatrix gamma(3, 5, 1.0);
  const auto p =
      DiagonalProblem::MakeFixed(x0, gamma, x0.RowSums(), x0.ColSums());
  std::vector<std::size_t> comp;
  EXPECT_EQ(SupportComponents(p, Vector(3, 0.0), Vector(5, 0.0), comp), 1u);
}

TEST(SupportComponents, OffPatternCellJoinsNothing) {
  // Every cell's x0 is positive, so at lambda = mu = 0 the dense support is
  // one component. The pattern keeps only the two diagonal 2x2 blocks: the
  // cells off it are not arcs and join no row to a column.
  DenseMatrix x0(4, 4, 2.0);
  const auto p = DiagonalProblem::MakeFixed(x0, DenseMatrix(4, 4, 1.0),
                                            x0.RowSums(), x0.ColSums());
  std::vector<SparseMatrix::Triplet> cells, weights;
  for (std::size_t b = 0; b < 4; b += 2)
    for (std::size_t i = b; i < b + 2; ++i)
      for (std::size_t j = b; j < b + 2; ++j) {
        cells.push_back({i, j, 2.0});
        weights.push_back({i, j, 1.0});
      }
  const SparseMatrix sx0 = SparseMatrix::FromTriplets(4, 4, cells);
  const auto sp = SparseDiagonalProblem::MakeFixed(
      sx0, SparseMatrix::FromTriplets(4, 4, weights), sx0.RowSums(),
      sx0.ColSums());
  std::vector<std::size_t> comp;
  EXPECT_EQ(SupportComponents(p, Vector(4, 0.0), Vector(4, 0.0), comp), 1u);
  ASSERT_EQ(SupportComponents(sp, Vector(4, 0.0), Vector(4, 0.0), comp), 2u);
  EXPECT_EQ(comp[0], comp[5]);  // row 0 and column 1 share a block
  EXPECT_NE(comp[0], comp[6]);  // row 0 and column 2 do not
  EXPECT_EQ(comp[2], comp[7]);
}

TEST(Rebalance, FullPatternSparseMatchesDenseBitForBit) {
  // Multipliers large enough to cut the support graph into several
  // components; on a full pattern the sparse walk visits the same arcs in
  // the same order, so it finds the same components and the same shifts.
  Rng rng(5);
  const DenseMatrix x0 = Fill(6, 7, rng, 1.0, 5.0);
  const DenseMatrix gamma = Fill(6, 7, rng, 0.5, 2.0);
  const auto dense =
      DiagonalProblem::MakeFixed(x0, gamma, x0.RowSums(), x0.ColSums());
  const auto sparse = SparseDiagonalProblem::MakeFixed(
      SparseMatrix::FromDense(x0), SparseMatrix::FromDense(gamma),
      x0.RowSums(), x0.ColSums());
  const Vector lambda0 = rng.UniformVector(6, -40.0, 40.0);
  const Vector mu0 = rng.UniformVector(7, -40.0, 40.0);

  std::vector<std::size_t> comp_d, comp_s;
  const std::size_t n_comp = SupportComponents(dense, lambda0, mu0, comp_d);
  EXPECT_GT(n_comp, 1u);
  EXPECT_EQ(SupportComponents(sparse, lambda0, mu0, comp_s), n_comp);
  EXPECT_EQ(comp_s, comp_d);

  Vector lambda_d = lambda0, mu_d = mu0, lambda_s = lambda0, mu_s = mu0;
  const auto res_d = RebalanceMultipliers(dense, lambda_d, mu_d, 10.0);
  const auto res_s = RebalanceMultipliers(sparse, lambda_s, mu_s, 10.0);
  EXPECT_GT(res_d.shifted_components, 0u);
  EXPECT_EQ(res_s.shifted_components, res_d.shifted_components);
  EXPECT_EQ(lambda_s, lambda_d);
  EXPECT_EQ(mu_s, mu_d);
}

TEST(Rebalance, SparseSolverHonoursMultiplierBound) {
  // The bound changes a fixed solve's trajectory, and a full-pattern sparse
  // solve follows the dense one bit for bit with it as without it.
  Rng rng(6);
  const DenseMatrix x0 = Fill(8, 10, rng, 0.1, 30.0);
  const DenseMatrix gamma = Fill(8, 10, rng, 0.05, 2.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.4;
  for (double& v : d0) v *= 1.4;
  const auto dense = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
  const auto sparse = SparseDiagonalProblem::MakeFixed(
      SparseMatrix::FromDense(x0), SparseMatrix::FromDense(gamma), s0, d0);
  SeaOptions o;
  o.epsilon = 1e-9;
  o.criterion = StopCriterion::kResidualAbs;
  o.multiplier_bound = 5.0;
  const auto run_d = SolveDiagonal(dense, o);
  const auto run_s = SolveSparse(sparse, o);
  ASSERT_TRUE(run_d.result.converged());
  EXPECT_EQ(run_s.result.iterations, run_d.result.iterations);
  EXPECT_EQ(run_s.solution.lambda, run_d.solution.lambda);
  EXPECT_EQ(run_s.solution.mu, run_d.solution.mu);

  o.multiplier_bound = 0.0;
  const auto plain = SolveSparse(sparse, o);
  ASSERT_TRUE(plain.result.converged());
  EXPECT_NE(run_s.solution.lambda, plain.solution.lambda);
}

TEST(Rebalance, ShiftPreservesPrimalWithinComponents) {
  const auto p = TwoBlockProblem();
  // Give block 1's rows a large multiplier, balanced by the block's columns
  // (a pure gauge offset).
  Vector lambda{50.0, 50.0, 0.0, 0.0};
  Vector mu{-50.0, -50.0, 0.0, 0.0};
  const auto before = RecoverPrimal(p, lambda, mu);

  const auto res = RebalanceMultipliers(p, lambda, mu, 10.0);
  EXPECT_EQ(res.shifted_components, 1u);
  EXPECT_LE(std::abs(lambda[0]), 10.0 + 1e-12);
  EXPECT_LE(std::abs(lambda[1]), 10.0 + 1e-12);

  const auto after = RecoverPrimal(p, lambda, mu);
  EXPECT_LT(before.x.MaxAbsDiff(after.x), 1e-9);
}

TEST(Rebalance, ShiftPreservesDualValueOnBalancedComponents) {
  const auto p = TwoBlockProblem();
  Vector lambda{50.0, 50.0, -3.0, 2.0};
  Vector mu{-50.0, -50.0, 1.0, 1.5};
  const double before = DualValue(p, lambda, mu);
  RebalanceMultipliers(p, lambda, mu, 10.0);
  EXPECT_NEAR(DualValue(p, lambda, mu), before,
              1e-9 * std::max(1.0, std::abs(before)));
}

TEST(Rebalance, NoopWhenWithinBound) {
  const auto p = TwoBlockProblem();
  Vector lambda{1.0, -2.0, 0.5, 0.0};
  Vector mu{0.0, 0.3, -0.7, 0.2};
  const Vector l0 = lambda, m0 = mu;
  const auto res = RebalanceMultipliers(p, lambda, mu, 10.0);
  EXPECT_EQ(res.shifted_components, 0u);
  EXPECT_EQ(lambda, l0);
  EXPECT_EQ(mu, m0);
}

TEST(Rebalance, RejectsElasticRegime) {
  Rng rng(2);
  DenseMatrix x0 = Fill(2, 2, rng, 1.0, 5.0);
  DenseMatrix gamma(2, 2, 1.0);
  const auto p = DiagonalProblem::MakeElastic(x0, gamma, {2.0, 2.0},
                                              {1.0, 1.0}, {2.0, 2.0},
                                              {1.0, 1.0});
  Vector lambda(2, 100.0), mu(2, -100.0);
  EXPECT_THROW(RebalanceMultipliers(p, lambda, mu, 1.0), InvalidArgument);
}

TEST(Rebalance, SolverWithBoundReachesSameSolution) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    DenseMatrix x0 = Fill(8, 10, rng, 0.1, 30.0);
    DenseMatrix gamma = Fill(8, 10, rng, 0.05, 2.0);
    Vector s0 = x0.RowSums();
    Vector d0 = x0.ColSums();
    const double grow = rng.Uniform(0.8, 1.5);
    for (double& v : s0) v *= grow;
    for (double& v : d0) v *= grow;
    const auto p = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);

    SeaOptions plain;
    plain.epsilon = 1e-9;
    plain.criterion = StopCriterion::kResidualAbs;
    const auto base = SolveDiagonal(p, plain);

    SeaOptions bounded = plain;
    bounded.multiplier_bound = 5.0;  // aggressive: forces frequent shifts
    const auto mod = SolveDiagonal(p, bounded);

    ASSERT_TRUE(base.result.converged());
    ASSERT_TRUE(mod.result.converged());
    EXPECT_LT(base.solution.x.MaxAbsDiff(mod.solution.x), 1e-5);
    // The modification bounds the multipliers without derailing KKT.
    EXPECT_LT(KktStationarityError(p, mod.solution), 1e-6);
  }
}

TEST(Rebalance, SamSolverWithBoundConverges) {
  Rng rng(4);
  DenseMatrix x0 = Fill(9, 9, rng, 0.1, 20.0);
  DenseMatrix gamma = Fill(9, 9, rng, 0.1, 1.0);
  Vector s0(9);
  const Vector rows = x0.RowSums(), cols = x0.ColSums();
  for (std::size_t i = 0; i < 9; ++i) s0[i] = 0.5 * (rows[i] + cols[i]);
  const auto p = DiagonalProblem::MakeSam(x0, gamma, s0,
                                          rng.UniformVector(9, 0.2, 1.0));
  SeaOptions o;
  o.epsilon = 1e-8;
  o.criterion = StopCriterion::kResidualRel;
  o.multiplier_bound = 10.0;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  EXPECT_LT(CheckFeasibility(p, run.solution).MaxRel(), 1e-6);
}

}  // namespace
}  // namespace sea
