// Primal/dual solution of a constrained matrix problem.
#pragma once

#include <span>

#include "linalg/dense_matrix.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/types.hpp"

namespace sea {

template <class Matrix>
struct BasicSolution {
  Matrix x;       // m x n estimate, on the problem's layout
  Vector s;       // row totals (estimated; equals s0 in the fixed regime)
  Vector d;       // column totals (for SAM: d == s)
  Vector lambda;  // row-constraint multipliers (m)
  Vector mu;      // column-constraint multipliers (n)
};

using Solution = BasicSolution<DenseMatrix>;
using SparseSolution = BasicSolution<SparseMatrix>;

// Recovers the primal variables that minimize the Lagrangian of a diagonal
// problem at the given multipliers (paper eqs. (23a)-(23c) / (40a)-(40b)):
//
//   x_ij = max(0, x0_ij + (lambda_i + mu_j) / (2 gamma_ij))
//   s_i  = s0_i - lambda_i / (2 alpha_i)                 [elastic]
//   s_i  = s0_i - (lambda_i + mu_i) / (2 alpha_i)        [SAM]
//   d_j  = d0_j - mu_j / (2 beta_j)                      [elastic]
//
// (interval: the elastic s and d clamped to their boxes). For the fixed
// regime, s and d are the fixed totals. Off-pattern cells of a sparse
// problem are not variables and stay absent.
template <class Matrix>
BasicSolution<Matrix> RecoverPrimal(const BasicDiagonalProblem<Matrix>& p,
                                    Vector lambda, Vector mu);

// Value of the dual function zeta_l(lambda, mu) (paper eqs. (24), (41),
// (51)), including the constant terms so that at optimality it equals the
// primal objective (strong duality). Sums the arcs in walk order
// (problems/layout.hpp), so on a full pattern the sparse value equals the
// dense one bit for bit.
template <class Matrix>
double DualValue(const BasicDiagonalProblem<Matrix>& p, const Vector& lambda,
                 const Vector& mu);

// One arc's share of zeta's x-part, accumulated into val:
// -(2 gamma x0 + lambda_i + mu_j)_+^2 / (4 gamma) + gamma x0^2.
inline void AddDualArc(double& val, double x0, double gamma, double lambda_i,
                       double mu_j) {
  const double t = 2.0 * gamma * x0 + lambda_i + mu_j;
  if (t > 0.0) val -= t * t / (4.0 * gamma);
  val += gamma * x0 * x0;
}

// Adds zeta's totals part (the regime's eq. (24), (41) or (51) terms, in
// index order) to val and returns the sum.
double AddDualTotals(double val, const TotalsView& totals,
                     std::span<const double> lambda,
                     std::span<const double> mu);

}  // namespace sea
