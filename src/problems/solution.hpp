// Primal/dual solution of a constrained matrix problem.
#pragma once

#include <span>

#include "linalg/dense_matrix.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/types.hpp"

namespace sea {

struct Solution {
  DenseMatrix x;  // m x n estimate
  Vector s;       // row totals (estimated; equals s0 in the fixed regime)
  Vector d;       // column totals (for SAM: d == s)
  Vector lambda;  // row-constraint multipliers (m)
  Vector mu;      // column-constraint multipliers (n)
};

// Recovers the primal variables that minimize the Lagrangian of a diagonal
// problem at the given multipliers (paper eqs. (23a)-(23c) / (40a)-(40b)):
//
//   x_ij = max(0, x0_ij + (lambda_i + mu_j) / (2 gamma_ij))
//   s_i  = s0_i - lambda_i / (2 alpha_i)                 [elastic]
//   s_i  = s0_i - (lambda_i + mu_i) / (2 alpha_i)        [SAM]
//   d_j  = d0_j - mu_j / (2 beta_j)                      [elastic]
//
// For the fixed regime, s and d are the fixed totals.
Solution RecoverPrimal(const DiagonalProblem& p, Vector lambda, Vector mu);

// Value of the dual function zeta_l(lambda, mu) (paper eqs. (24), (41),
// (51)), including the constant terms so that at optimality it equals the
// primal objective (strong duality). The sparse form (sparse/sparse_sea.hpp)
// sums the same terms over the pattern, through the two helpers below.
double DualValue(const DiagonalProblem& p, const Vector& lambda,
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
