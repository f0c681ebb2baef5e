// The RC (row/column) equilibration algorithm of Nagurney, Kim & Robinson
// (1990) for general quadratic constrained matrix problems with fixed row and
// column totals — the primary comparator of the paper's Tables 7 and 9
// (Figure 6 is its flowchart).
//
// Like general SEA, RC is built on the Dafermos projection method, but it
// applies it differently: each outer iteration solves
//
//   (row phase)    min F(x)  s.t.  sum_j x_ij = s0_i,  x >= 0
//   (column phase) min F(x)  s.t.  sum_i x_ij = d0_j,  x >= 0
//
// each *to projection-method convergence*, alternating until both constraint
// families hold. Inside a phase, each projection iteration diagonalizes F at
// the current iterate and the resulting subproblem separates by row (resp.
// column) into exact-equilibration markets with no cross multipliers. The
// projection-convergence verification inside *both* phases is a serial stage
// not present in SEA (which verifies once per outer iteration) — the source
// of RC's lower parallel efficiency in Table 9.
//
// For diagonal problems RC coincides with diagonal SEA (paper Section 3.1.3),
// so only the general fixed-totals version lives here.
#pragma once

#include "core/options.hpp"
#include "core/result.hpp"
#include "problems/general_problem.hpp"
#include "problems/solution.hpp"

namespace sea {

struct RcOptions {
  // Overall tolerance: stop when, after a column phase, the row constraints
  // hold to epsilon (relative residual) — the column constraints are then
  // exact. Matches the common criterion used for Table 7 (epsilon' = .001).
  double epsilon = 1e-3;
  std::size_t max_outer_iterations = 200;
  // Projection-method tolerance inside a phase: max |x - x_prev| <= this.
  // 0 derives epsilon/10.
  double projection_epsilon = 0.0;
  std::size_t max_projection_iterations = 200;
  ThreadPool* pool = nullptr;
};

struct RcResult {
  bool converged = false;
  std::size_t outer_iterations = 0;
  // Projection-method iterations per phase, in execution order (the paper
  // reports e.g. "4 iterations of the projection method for row
  // equilibration and 3 for column equilibration").
  std::vector<std::size_t> projection_iterations_per_phase;
  double final_residual = 0.0;
  double objective = 0.0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  OpCounts ops;
};

struct RcRun {
  Solution solution;
  RcResult result;
};

// Requires problem.mode() == TotalsMode::kFixed.
RcRun SolveRc(const GeneralProblem& problem, const RcOptions& opts);

}  // namespace sea
