#include "core/diagonal_sea.hpp"

#include "core/sweep_backend.hpp"
#include "problems/solution.hpp"
#include "support/check.hpp"

namespace sea {

template <class Matrix>
BasicDiagonalSea<Matrix>::BasicDiagonalSea(const Problem& problem) {
  problem.Validate();
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
}

template <class Matrix>
void BasicDiagonalSea<Matrix>::ResetProblem(const Problem& problem) {
  SEA_CHECK(problem.m() == problem_->m() && problem.n() == problem_->n());
  SEA_CHECK(problem.mode() == problem_->mode());
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
}

template <class Matrix>
BasicSeaRun<Matrix> BasicDiagonalSea<Matrix>::Solve(const SeaOptions& opts) {
  return SolveWarm(opts, Vector(problem_->n(), 0.0));  // paper Step 0: mu = 0
}

template <class Matrix>
BasicSeaRun<Matrix> BasicDiagonalSea<Matrix>::SolveWarm(const SeaOptions& opts,
                                                        const Vector& mu0) {
  const Problem& p = *problem_;
  SEA_CHECK(mu0.size() == p.n());

  Vector lambda(p.m(), 0.0);
  Vector mu = mu0;
  SweepBackend<Matrix> backend(p, x0_t_, opts, lambda, mu);

  BasicSeaRun<Matrix> run;
  run.result = RunIterationEngine(backend, opts);
  run.solution = RecoverPrimal(p, std::move(lambda), std::move(mu));
  run.result.objective =
      p.Objective(run.solution.x, run.solution.s, run.solution.d);
  return run;
}

template class BasicDiagonalSea<DenseMatrix>;
template class BasicDiagonalSea<SparseMatrix>;

}  // namespace sea
