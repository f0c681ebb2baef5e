// The diagonal quadratic constrained matrix problem (paper objectives (5),
// (9), (13)):
//
//   minimize  sum_ij gamma_ij (x_ij - x0_ij)^2
//           + sum_i  alpha_i  (s_i  - s0_i)^2     [elastic, SAM, interval]
//           + sum_j  beta_j   (d_j  - d0_j)^2     [elastic, interval]
//   subject to the row/column constraints of the selected TotalsMode and
//   x_ij >= 0.
//
// All weights must be strictly positive (strict convexity; the paper assumes
// strictly positive definite weight matrices, which in the diagonal case is
// exactly positivity of the diagonal).
//
// One problem type, two layouts (problems/layout.hpp): DiagonalProblem
// stores the arcs as dense m x n matrices, SparseDiagonalProblem as a
// support pattern whose off-pattern cells are not variables
// (sparse/sparse_problem.hpp). The paper's IO72 instances are 16% dense.
//
// This type also serves as the inner subproblem of the general algorithms:
// the projection step (paper eq. (79)) produces problems of exactly this form
// with refreshed centers, so the problem deliberately stores *centers*
// (x0, s0, d0) rather than linear coefficients.
#pragma once

#include <concepts>

#include "problems/layout.hpp"
#include "problems/types.hpp"
#include "sparse/feasibility_flow.hpp"
#include "support/check.hpp"

namespace sea {

template <class Matrix>
class BasicDiagonalProblem {
 public:
  BasicDiagonalProblem() = default;

  // Fixed totals: minimize sum gamma (x - x0)^2 with row sums s0 and column
  // sums d0. Requires sum(s0) == sum(d0) for feasibility (checked by
  // Validate with a relative tolerance).
  static BasicDiagonalProblem MakeFixed(Matrix x0, Matrix gamma, Vector s0,
                                        Vector d0);

  // Elastic totals (objective (5)).
  static BasicDiagonalProblem MakeElastic(Matrix x0, Matrix gamma, Vector s0,
                                          Vector alpha, Vector d0, Vector beta);

  // SAM estimation (objective (9)); m == n, totals balance by construction.
  static BasicDiagonalProblem MakeSam(Matrix x0, Matrix gamma, Vector s0,
                                      Vector alpha);

  // Interval totals (Harrigan & Buchanan 1984): elastic objective plus box
  // constraints s_lo <= s <= s_hi, d_lo <= d <= d_hi. Requires
  // 0 <= lo <= hi componentwise.
  static BasicDiagonalProblem MakeInterval(Matrix x0, Matrix gamma, Vector s0,
                                           Vector alpha, Vector s_lo,
                                           Vector s_hi, Vector d0, Vector beta,
                                           Vector d_lo, Vector d_hi);

  TotalsMode mode() const { return mode_; }
  std::size_t m() const { return x0_.rows(); }
  std::size_t n() const { return x0_.cols(); }
  // Number of arcs (m * n on the dense layout).
  std::size_t nnz() const { return ArcValues(x0_).size(); }
  std::size_t num_variables() const;

  const Matrix& x0() const { return x0_; }
  const Matrix& gamma() const { return gamma_; }
  const Vector& s0() const { return s0_; }
  const Vector& alpha() const { return alpha_; }
  const Vector& d0() const { return d0_; }
  const Vector& beta() const { return beta_; }
  // Interval bounds (kInterval only; empty otherwise).
  const Vector& s_lo() const { return s_lo_; }
  const Vector& s_hi() const { return s_hi_; }
  const Vector& d_lo() const { return d_lo_; }
  const Vector& d_hi() const { return d_hi_; }
  // The totals data above as spans (the sweeps and the dual value read it).
  TotalsView totals() const {
    return {mode_, s0_, alpha_, d0_, beta_, s_lo_, s_hi_, d_lo_, d_hi_};
  }

  // Throws InvalidArgument when shapes/signs/feasibility are inconsistent.
  void Validate() const;

  // Objective value of an estimate on the problem's layout. For kFixed, s
  // and d are ignored; for kSam, d is ignored.
  double Objective(const Matrix& x, const Vector& s, const Vector& d) const;

  // Sparse layout, fixed regime: max-flow feasibility of the totals on the
  // pattern (sparse/feasibility_flow.hpp).
  PatternFeasibilityReport CheckFeasibleTotals() const
    requires std::same_as<Matrix, SparseMatrix>
  {
    SEA_CHECK_MSG(mode_ == TotalsMode::kFixed,
                  "flow feasibility applies to the fixed regime");
    return CheckPatternFeasibility(x0_, s0_, d0_);
  }

 private:
  TotalsMode mode_ = TotalsMode::kFixed;
  Matrix x0_;           // m x n centers
  Matrix gamma_;        // m x n weights (> 0), same layout as x0
  Vector s0_;           // m (n for SAM) row totals / centers
  Vector alpha_;        // row-total weights (elastic, SAM, interval)
  Vector d0_;           // n column totals / centers (not SAM)
  Vector beta_;         // column-total weights (elastic, interval)
  Vector s_lo_, s_hi_;  // row total bounds (kInterval)
  Vector d_lo_, d_hi_;  // column total bounds (kInterval)
};

using DiagonalProblem = BasicDiagonalProblem<DenseMatrix>;
using SparseDiagonalProblem = BasicDiagonalProblem<SparseMatrix>;

}  // namespace sea
