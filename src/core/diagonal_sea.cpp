#include "core/diagonal_sea.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "core/multiplier_rebalance.hpp"
#include "core/sweep_backend.hpp"
#include "problems/solution.hpp"
#include "support/check.hpp"

namespace sea {

namespace {

// The dense layout's backend: the shared one plus the paper's Modified
// Algorithm, which rebalances multipliers across the support graph's
// components (core/multiplier_rebalance.hpp). The sparse layout has no
// such transform, so its restart rung restores and damps only.
class DenseDiagonalBackend final : public SweepBackend<DenseMatrix> {
 public:
  using SweepBackend::SweepBackend;

  void RebalanceDuals(const SeaOptions& opts) override {
    // Keep dual iterates bounded by rebalancing multipliers across support
    // components (a gauge shift with no effect on the primal trajectory).
    if (opts.multiplier_bound > 0.0 && (p_.mode() == TotalsMode::kFixed ||
                                        p_.mode() == TotalsMode::kSam))
      RebalanceMultipliers(p_, lambda_, mu_, opts.multiplier_bound);
  }

  void ForceRebalance() override {
    // Rung 3's re-gauge: shift multipliers across support components
    // relative to the current dual magnitude, regardless of the
    // multiplier_bound option (only the gauge-free regimes have this
    // freedom).
    if (p_.mode() != TotalsMode::kFixed && p_.mode() != TotalsMode::kSam)
      return;
    double max_abs = 0.0;
    for (double v : lambda_) max_abs = std::max(max_abs, std::abs(v));
    if (max_abs > 0.0) RebalanceMultipliers(p_, lambda_, mu_, 0.5 * max_abs);
  }
};

template <class Matrix>
using BackendFor = std::conditional_t<std::is_same_v<Matrix, DenseMatrix>,
                                      DenseDiagonalBackend,
                                      SweepBackend<Matrix>>;

}  // namespace

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
  BackendFor<Matrix> backend(p, x0_t_, opts, lambda, mu);

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
