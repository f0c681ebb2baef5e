// Splitting equilibration on sparse support patterns.
//
// Same dual block-coordinate maximization as core/diagonal_sea.hpp, but each
// row/column market only ranges over its pattern entries, so a full sweep
// costs O(nnz log(max row length)) instead of O(mn log n). Used for the
// paper's sparse I/O instances and any application with structural zeros.
#pragma once

#include <cstdint>

#include "core/options.hpp"
#include "core/result.hpp"
#include "problems/feasibility.hpp"
#include "sparse/sparse_problem.hpp"

namespace sea {

// FNV-1a fingerprint of a sparse problem's data (mode, shape, pattern,
// centers, weights, targets). Checkpoints record it so --resume refuses to
// graft an iterate onto different data; disjoint from the dense fingerprint
// (core/checkpoint.hpp) by a leading tag byte.
std::uint64_t FingerprintProblem(const SparseDiagonalProblem& p);

struct SparseSolution {
  SparseMatrix x;  // estimate on the pattern
  Vector s, d;     // totals (fixed: copies of the targets)
  Vector lambda, mu;
};

struct SparseSeaRun {
  SparseSolution solution;
  SeaResult result;
};

// Solver object mirroring core/diagonal_sea.hpp's DiagonalSea, so callers
// that chain related solves (the general algorithm, the sea_serve warm
// cache) program one warm-start API across the dense and sparse paths.
// Construction builds the transposed copy of the centers; ResetProblem
// swaps in refreshed data of the same shape and mode without reallocating
// the solver.
class SparseSea {
 public:
  explicit SparseSea(const SparseDiagonalProblem& problem);

  // Replaces the problem while keeping this solver object. Requires
  // identical dimensions and mode (the pattern may differ — the transposed
  // copy is rebuilt).
  void ResetProblem(const SparseDiagonalProblem& problem);

  const SparseDiagonalProblem& problem() const { return *problem_; }

  // Runs SEA from mu = 0 (paper Step 0).
  SparseSeaRun Solve(const SeaOptions& opts);

  // Runs SEA warm-started from the given column multipliers; lambda is
  // recomputed by the first row sweep, so mu is the whole warm state.
  SparseSeaRun SolveWarm(const SeaOptions& opts, const Vector& mu0);

 private:
  const SparseDiagonalProblem* problem_ = nullptr;
  SparseMatrix x0_t_;
};

// One-shot convenience wrapper.
SparseSeaRun SolveSparse(const SparseDiagonalProblem& problem,
                         const SeaOptions& opts);

// Feasibility residuals of a sparse solution against its problem's regime.
FeasibilityReport CheckFeasibility(const SparseDiagonalProblem& p,
                                   const SparseSolution& sol);

// The dual value zeta (problems/solution.hpp's DualValue) summed over the
// pattern: row by row, each row's arcs in column order, so on a full
// pattern it equals the dense form bit for bit.
double DualValue(const SparseDiagonalProblem& p, const Vector& lambda,
                 const Vector& mu);

// Max KKT stationarity violation on the pattern (off-pattern cells are not
// variables and impose no condition).
double KktStationarityError(const SparseDiagonalProblem& p,
                            const SparseSolution& sol);

}  // namespace sea
