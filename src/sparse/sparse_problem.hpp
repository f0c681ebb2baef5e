// Diagonal constrained matrix problems with an explicit support pattern:
// only pattern entries are variables; structural zeros stay zero.
//
// This is the form practitioners actually solve for sparse I/O tables —
// the paper's IO72 instances are only 16% dense — and it changes the
// semantics relative to DiagonalProblem with stiff zero-cell weights:
// off-pattern cells are excluded outright, so the totals must be reachable
// on the pattern (checkable with sparse/feasibility_flow.hpp).
#pragma once

#include "problems/types.hpp"
#include "sparse/feasibility_flow.hpp"
#include "sparse/sparse_matrix.hpp"

namespace sea {

class SparseDiagonalProblem {
 public:
  SparseDiagonalProblem() = default;

  static SparseDiagonalProblem MakeFixed(SparseMatrix x0, SparseMatrix gamma,
                                         Vector s0, Vector d0);
  static SparseDiagonalProblem MakeElastic(SparseMatrix x0, SparseMatrix gamma,
                                           Vector s0, Vector alpha, Vector d0,
                                           Vector beta);
  static SparseDiagonalProblem MakeSam(SparseMatrix x0, SparseMatrix gamma,
                                       Vector s0, Vector alpha);

  TotalsMode mode() const { return mode_; }
  std::size_t m() const { return x0_.rows(); }
  std::size_t n() const { return x0_.cols(); }
  std::size_t nnz() const { return x0_.nnz(); }

  const SparseMatrix& x0() const { return x0_; }
  const SparseMatrix& gamma() const { return gamma_; }
  const Vector& s0() const { return s0_; }
  const Vector& alpha() const { return alpha_; }
  const Vector& d0() const { return d0_; }
  const Vector& beta() const { return beta_; }
  // The totals data above as spans (no box bounds: kInterval is rejected).
  TotalsView totals() const { return {mode_, s0_, alpha_, d0_, beta_}; }

  void Validate() const;

  // For the fixed regime: max-flow feasibility of the totals on the pattern.
  PatternFeasibilityReport CheckFeasibleTotals() const;

  // Objective over a pattern-matching estimate.
  double Objective(const SparseMatrix& x, const Vector& s,
                   const Vector& d) const;

 private:
  TotalsMode mode_ = TotalsMode::kFixed;
  SparseMatrix x0_;
  SparseMatrix gamma_;  // same pattern as x0
  Vector s0_, alpha_, d0_, beta_;
};

}  // namespace sea
