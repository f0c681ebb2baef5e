// The general quadratic constrained matrix problem (paper objective (1)):
//
//   minimize  x^T G x + cx^T x                       (x = vec(X), mn vars)
//           + s^T A s + cs^T s                       [elastic, SAM]
//           + d^T B d + cd^T d                       [elastic]
//           + constant
//   subject to the row/column constraints of the TotalsMode and x >= 0,
//
// with G (mn x mn), A (m x m), B (n x n) symmetric strictly positive
// definite. Constructing from deviation form — (x-x0)^T G (x-x0) etc. — sets
// c = -2 G x0 and the constant so that Objective() equals the paper's
// weighted-squared-deviation value exactly. The paper's Table 7 instances
// are instead generated directly in (G, c) form, which this type supports
// natively.
//
// The key operation for the general SEA and RC algorithms is Diagonalize():
// the projection-method subproblem (paper eq. (79)) with fixed diagonal parts
// diag(A), diag(G), diag(B) and linear terms refreshed at the current
// iterate. Expressed in center form, the subproblem's x-centers are
//
//   c_k = z_k - (2 G z + cx)_k / (2 G_kk),
//
// i.e. current iterate minus the (diagonally preconditioned) gradient — and
// analogously for s and d.
#pragma once

#include "linalg/dense_matrix.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/types.hpp"

namespace sea {

class ThreadPool;

class GeneralProblem {
 public:
  GeneralProblem() = default;

  // Fixed totals, direct (G, c) form (Table 7 generation protocol).
  static GeneralProblem MakeFixed(std::size_t m, std::size_t n, DenseMatrix g,
                                  Vector cx, Vector s0, Vector d0);

  // Fixed totals, deviation form with base matrix X0.
  static GeneralProblem MakeFixedFromCenters(const DenseMatrix& x0,
                                             DenseMatrix g, Vector s0,
                                             Vector d0);

  // Elastic totals, deviation form (objective (1)).
  static GeneralProblem MakeElasticFromCenters(const DenseMatrix& x0,
                                               DenseMatrix g, const Vector& s0,
                                               DenseMatrix a, const Vector& d0,
                                               DenseMatrix b);

  // SAM, deviation form (objective (6)).
  static GeneralProblem MakeSamFromCenters(const DenseMatrix& x0,
                                           DenseMatrix g, const Vector& s0,
                                           DenseMatrix a);

  TotalsMode mode() const { return mode_; }
  std::size_t m() const { return m_; }
  std::size_t n() const { return n_; }
  std::size_t num_x() const { return m_ * n_; }

  const DenseMatrix& G() const { return g_; }
  const DenseMatrix& A() const { return a_; }
  const DenseMatrix& B() const { return b_; }
  const Vector& cx() const { return cx_; }
  const Vector& cs() const { return cs_; }
  const Vector& cd() const { return cd_; }
  const Vector& s0() const { return s0_; }
  const Vector& d0() const { return d0_; }
  double constant() const { return constant_; }

  void Validate() const;

  // Full objective value (includes the constant term). Optional pool
  // parallelizes the dense G matvec; the value is bit-identical either way.
  double Objective(const Vector& x, const Vector& s, const Vector& d,
                   ThreadPool* pool = nullptr) const;

  // Gradient of the x-part: out = 2 G x + cx. Optional pool parallelizes the
  // dense matvec (the dominant cost of one projection step).
  void GradientX(const Vector& x, Vector& out,
                 ThreadPool* pool = nullptr) const;
  // Gradients of the s/d parts (elastic, SAM).
  void GradientS(const Vector& s, Vector& out) const;
  void GradientD(const Vector& d, Vector& out) const;

  // Builds the diagonalized (projection-step) subproblem at iterate
  // (x_prev, s_prev, d_prev). For kFixed, s_prev/d_prev are ignored.
  DiagonalProblem Diagonalize(const Vector& x_prev, const Vector& s_prev,
                              const Vector& d_prev,
                              ThreadPool* pool = nullptr) const;

 private:
  TotalsMode mode_ = TotalsMode::kFixed;
  std::size_t m_ = 0, n_ = 0;
  DenseMatrix g_;      // mn x mn
  Vector cx_;          // mn
  DenseMatrix a_;      // m x m (elastic) or n x n (SAM); empty for fixed
  Vector cs_;
  DenseMatrix b_;      // n x n (elastic only)
  Vector cd_;
  Vector s0_, d0_;     // fixed totals (kFixed only)
  double constant_ = 0.0;
};

}  // namespace sea
