#include "core/diagonal_sea.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/multiplier_rebalance.hpp"
#include "core/sweep_backend.hpp"
#include "problems/feasibility.hpp"
#include "problems/solution.hpp"
#include "support/check.hpp"

namespace sea {

namespace {

// Dense-diagonal backend for the shared iteration engine: sweeps over the
// problem and its transposed copies, with the primal materialized
// column-major (x^T) on check iterations.
class DenseDiagonalBackend final : public SweepBackend<DenseMatrix> {
 public:
  DenseDiagonalBackend(const DiagonalProblem& p, const DenseMatrix& x0_t,
                       const SeaOptions& opts, Vector& lambda, Vector& mu)
      : SweepBackend(p.totals(), p.x0(), p.gamma(), x0_t,
                     DenseMatrix(p.n(), p.m(), 0.0), opts, lambda, mu),
        p_(p) {}

  std::uint64_t CheckCost() const override {
    return 2 * static_cast<std::uint64_t>(p_.m()) * p_.n();
  }

  void RebalanceDuals(const SeaOptions& opts) override {
    // The paper's Modified Algorithm: keep dual iterates bounded by
    // rebalancing multipliers across support components (a gauge shift with
    // no effect on the primal trajectory).
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

 private:
  void AccumulateRowSums() override {
    std::fill(rowsum_.begin(), rowsum_.end(), 0.0);
    const std::size_t m = p_.m(), n = p_.n();
    for (std::size_t j = 0; j < n; ++j) {
      const auto col = xt_.Row(j);
      for (std::size_t i = 0; i < m; ++i) rowsum_[i] += col[i];
    }
  }

  std::uint64_t Fingerprint() const override { return FingerprintProblem(p_); }

  double Zeta(const Vector& lambda, const Vector& mu) const override {
    return DualValue(p_, lambda, mu);
  }

  const DiagonalProblem& p_;
};

}  // namespace

DiagonalSea::DiagonalSea(const DiagonalProblem& problem) {
  problem.Validate();
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
}

void DiagonalSea::ResetProblem(const DiagonalProblem& problem) {
  SEA_CHECK(problem.m() == problem_->m() && problem.n() == problem_->n());
  SEA_CHECK(problem.mode() == problem_->mode());
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
}

DiagonalSeaRun DiagonalSea::Solve(const SeaOptions& opts) {
  return SolveWarm(opts, Vector(problem_->n(), 0.0));  // paper Step 0: mu = 0
}

DiagonalSeaRun DiagonalSea::SolveWarm(const SeaOptions& opts,
                                      const Vector& mu0) {
  const DiagonalProblem& p = *problem_;
  SEA_CHECK(mu0.size() == p.n());

  Vector lambda(p.m(), 0.0);
  Vector mu = mu0;

  DenseDiagonalBackend backend(p, x0_t_, opts, lambda, mu);

  DiagonalSeaRun run;
  run.result = RunIterationEngine(backend, opts);
  run.solution = RecoverPrimal(p, std::move(lambda), std::move(mu));
  run.result.objective =
      p.Objective(run.solution.x, run.solution.s, run.solution.d);
  return run;
}

DiagonalSeaRun SolveDiagonal(const DiagonalProblem& problem,
                             const SeaOptions& opts) {
  DiagonalSea solver(problem);
  return solver.Solve(opts);
}

}  // namespace sea
