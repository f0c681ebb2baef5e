// Feasibility and optimality (KKT) measurement.
//
// The paper's convergence checks are constraint-residual based — equivalent,
// by eqs. (27)/(43)/(52), to the dual gradient norm. These helpers are shared
// by the solvers' stopping rules, the benchmark harness, and the test suite's
// optimality assertions.
#pragma once

#include "linalg/dense_matrix.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/general_problem.hpp"
#include "problems/solution.hpp"

namespace sea {

struct FeasibilityReport {
  double max_row_abs = 0.0;  // max_i |sum_j x_ij - s_i|
  double max_row_rel = 0.0;  // max_i |sum_j x_ij - s_i| / max(1, |s_i|)
  double max_col_abs = 0.0;
  double max_col_rel = 0.0;
  double min_x = 0.0;        // most negative entry (>= 0 when feasible)

  double MaxAbs() const;
  double MaxRel() const;
};

// Residuals of x (DenseMatrix or SparseMatrix) against row targets s and
// column targets d.
template <class Matrix>
FeasibilityReport CheckFeasibility(const Matrix& x, const Vector& s,
                                   const Vector& d);

// Residuals of a solution against its problem's constraint regime
// (for SAM the column targets are the estimated s).
template <class Matrix>
FeasibilityReport CheckFeasibility(const BasicDiagonalProblem<Matrix>& p,
                                   const BasicSolution<Matrix>& sol);

// Maximum KKT violation of (x, s, d, lambda, mu) for a diagonal problem:
// stationarity (20)-(22)/(38)-(39), complementarity, and nonnegativity.
// Constraint residuals are NOT included (report them via CheckFeasibility);
// this isolates "is this point the Lagrangian minimizer for its multipliers".
// Off-pattern cells of a sparse problem are not variables and impose no
// condition.
template <class Matrix>
double KktStationarityError(const BasicDiagonalProblem<Matrix>& p,
                            const BasicSolution<Matrix>& sol);

// Maximum KKT violation for the general problem at (x, s, d, lambda, mu):
// |grad_x F - lambda_i - mu_j| on the support, one-sided off the support,
// |grad_s F + lambda|, |grad_d F + mu| (mode-dependent).
double KktStationarityError(const GeneralProblem& p, const Solution& sol);

}  // namespace sea
