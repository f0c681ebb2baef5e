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

struct DiagonalSeaRun {
  Solution solution;
  SeaResult result;
};

// Solver object. Construction builds the transposed copy of the centers, so
// column sweeps read contiguous memory (each solve derives its arc slopes
// from the weights in both layouts); reuse one solver across repeated
// solves of same-structure problems (the general algorithm's inner loop) to
// amortize that cost.
class DiagonalSea {
 public:
  explicit DiagonalSea(const DiagonalProblem& problem);

  // Replaces centers/totals while keeping shapes and weights-layout work.
  // Requires identical dimensions and mode.
  void ResetProblem(const DiagonalProblem& problem);

  const DiagonalProblem& problem() const { return *problem_; }

  // Runs SEA from mu = 0 (paper Step 0).
  DiagonalSeaRun Solve(const SeaOptions& opts);

  // Runs SEA warm-started from the given column multipliers (used by the
  // general algorithm to chain inner solves).
  DiagonalSeaRun SolveWarm(const SeaOptions& opts, const Vector& mu0);

 private:
  const DiagonalProblem* problem_ = nullptr;
  // Sweep-major copy: row sweeps read x0, column sweeps its transpose.
  DenseMatrix x0_t_;
};

// One-shot convenience wrapper.
DiagonalSeaRun SolveDiagonal(const DiagonalProblem& problem,
                             const SeaOptions& opts);

}  // namespace sea
