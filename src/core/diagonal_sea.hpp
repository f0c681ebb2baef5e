// The Splitting Equilibration Algorithm for diagonal constrained matrix
// problems (paper Section 3.1; Figures 2 and 3).
//
// Dual interpretation (paper eqs. (28), (44), (53)): block-coordinate
// maximization of the explicit concave dual zeta_l(lambda, mu) —
//
//   lambda^{t+1} -> argmax_lambda zeta_l(lambda, mu^t)     (row step)
//   mu^{t+1}     -> argmax_mu     zeta_l(lambda^{t+1}, mu) (column step)
//
// Each block maximization decomposes into m (respectively n) independent
// markets solved exactly in closed form (equilibration/), which is what
// makes the method embarrassingly parallel within a half-step. Convergence
// is geometric (paper eqs. (64), (76)-(77)).
#pragma once

#include <utility>

#include "core/options.hpp"
#include "core/result.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/solution.hpp"

namespace sea {

template <class Matrix>
struct BasicSeaRun {
  BasicSolution<Matrix> solution;
  SeaResult result;
};

// Solver object, one type over both layouts (problems/layout.hpp).
// Construction builds the transposed copy of the centers, so column sweeps
// read contiguous memory (each solve derives its arc slopes from the
// weights in both layouts); reuse one solver across repeated solves of
// same-structure problems (the general algorithm's inner loop) to amortize
// that cost.
template <class Matrix>
class BasicDiagonalSea {
 public:
  using Problem = BasicDiagonalProblem<Matrix>;

  explicit BasicDiagonalSea(const Problem& problem);

  // Replaces centers/totals while keeping the solver object. Requires
  // identical dimensions and mode (a sparse pattern may differ — the
  // transposed copy is rebuilt).
  void ResetProblem(const Problem& problem);

  const Problem& problem() const { return *problem_; }

  // Runs SEA from mu = 0 (paper Step 0).
  BasicSeaRun<Matrix> Solve(const SeaOptions& opts);

  // Runs SEA warm-started from the given column multipliers; lambda is
  // recomputed by the first row sweep, so mu is the whole warm state (the
  // general algorithm chains inner solves this way).
  BasicSeaRun<Matrix> SolveWarm(const SeaOptions& opts, const Vector& mu0);

 private:
  const Problem* problem_ = nullptr;
  // Sweep-major copy: row sweeps read x0, column sweeps its transpose.
  Matrix x0_t_;
};

using DiagonalSeaRun = BasicSeaRun<DenseMatrix>;
using SparseSeaRun = BasicSeaRun<SparseMatrix>;
using DiagonalSea = BasicDiagonalSea<DenseMatrix>;
using SparseSea = BasicDiagonalSea<SparseMatrix>;

// One-shot convenience wrappers.
inline DiagonalSeaRun SolveDiagonal(const DiagonalProblem& problem,
                                    const SeaOptions& opts) {
  return DiagonalSea(problem).Solve(opts);
}
inline SparseSeaRun SolveSparse(const SparseDiagonalProblem& problem,
                                const SeaOptions& opts) {
  return SparseSea(problem).Solve(opts);
}

}  // namespace sea
