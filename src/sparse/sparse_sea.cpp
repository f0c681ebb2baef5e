#include "sparse/sparse_sea.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/sweep_backend.hpp"
#include "problems/solution.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"

namespace sea {

namespace {

void MixPattern(support::Fnv1a& h, const SparseMatrix& a) {
  h.MixU64(a.rows());
  h.MixU64(a.nnz());
  for (std::size_t p : a.RowPtr()) h.MixU64(p);
  for (std::size_t c : a.ColIdx()) h.MixU64(c);
  h.MixDoubles(a.Values());
}

}  // namespace

std::uint64_t FingerprintProblem(const SparseDiagonalProblem& p) {
  support::Fnv1a h;
  h.MixBytes("S", 1);  // domain-separate from the dense fingerprint
  h.MixU64(static_cast<std::uint64_t>(p.mode()));
  h.MixU64(p.m());
  h.MixU64(p.n());
  MixPattern(h, p.x0());
  MixPattern(h, p.gamma());
  h.MixDoubles(p.s0());
  h.MixDoubles(p.alpha());
  h.MixDoubles(p.d0());
  h.MixDoubles(p.beta());
  return h.value();
}

namespace {

// Sparse backend for the shared iteration engine: sweeps over the pattern
// and its transposed copy; the primal is materialized on the transposed
// pattern (xt) on check iterations.
class SparseBackend final : public SweepBackend<SparseMatrix> {
 public:
  SparseBackend(const SparseDiagonalProblem& p, const SparseMatrix& x0_t,
                const SeaOptions& opts, Vector& lambda, Vector& mu)
      // xt reuses the transposed pattern; its values are overwritten per
      // check.
      : SweepBackend(p.totals(), p.x0(), p.gamma(), x0_t, x0_t, opts, lambda,
                     mu),
        p_(p) {}

  std::uint64_t CheckCost() const override { return 2 * p_.nnz(); }

  // ForceRebalance stays the no-op default: the sparse path has no
  // multiplier-rebalance transform, so the restart rung restores + damps.

 private:
  void AccumulateRowSums() override {
    std::fill(rowsum_.begin(), rowsum_.end(), 0.0);
    // xt's rows are the original columns; its column ids are original rows.
    for (std::size_t k = 0; k < xt_.nnz(); ++k)
      rowsum_[xt_.ColIdx()[k]] += xt_.Values()[k];
  }

  std::uint64_t Fingerprint() const override { return FingerprintProblem(p_); }

  double Zeta(const Vector& lambda, const Vector& mu) const override {
    return DualValue(p_, lambda, mu);
  }

  const SparseDiagonalProblem& p_;
};

}  // namespace

SparseSea::SparseSea(const SparseDiagonalProblem& problem) {
  problem.Validate();
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
}

void SparseSea::ResetProblem(const SparseDiagonalProblem& problem) {
  SEA_CHECK(problem.m() == problem_->m() && problem.n() == problem_->n());
  SEA_CHECK(problem.mode() == problem_->mode());
  problem.Validate();
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
}

SparseSeaRun SparseSea::Solve(const SeaOptions& opts) {
  return SolveWarm(opts, Vector(problem_->n(), 0.0));  // paper Step 0: mu = 0
}

SparseSeaRun SparseSea::SolveWarm(const SeaOptions& opts, const Vector& mu0) {
  const SparseDiagonalProblem& p = *problem_;
  const std::size_t m = p.m(), n = p.n();
  SEA_CHECK(mu0.size() == n);

  Vector lambda(m, 0.0);
  Vector mu = mu0;
  SparseBackend backend(p, x0_t_, opts, lambda, mu);

  SparseSeaRun run;
  run.result = RunIterationEngine(backend, opts);
  SeaResult& result = run.result;
  run.solution.x = p.x0();
  for (std::size_t i = 0; i < m; ++i) {
    const auto cols = run.solution.x.RowCols(i);
    const auto cvals = p.x0().RowValues(i);
    const auto gvals = p.gamma().RowValues(i);
    auto xvals = run.solution.x.MutableRowValues(i);
    for (std::size_t k = 0; k < cols.size(); ++k)
      xvals[k] = std::max(
          0.0, cvals[k] + (lambda[i] + mu[cols[k]]) / (2.0 * gvals[k]));
  }
  switch (p.mode()) {
    case TotalsMode::kFixed:
      run.solution.s = p.s0();
      run.solution.d = p.d0();
      break;
    case TotalsMode::kElastic:
      run.solution.s.resize(m);
      run.solution.d.resize(n);
      for (std::size_t i = 0; i < m; ++i)
        run.solution.s[i] = p.s0()[i] - lambda[i] / (2.0 * p.alpha()[i]);
      for (std::size_t j = 0; j < n; ++j)
        run.solution.d[j] = p.d0()[j] - mu[j] / (2.0 * p.beta()[j]);
      break;
    case TotalsMode::kSam:
      run.solution.s.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        run.solution.s[i] =
            p.s0()[i] - (lambda[i] + mu[i]) / (2.0 * p.alpha()[i]);
      run.solution.d = run.solution.s;
      break;
    case TotalsMode::kInterval:
      break;  // unreachable
  }
  run.solution.lambda = std::move(lambda);
  run.solution.mu = std::move(mu);
  result.objective =
      p.Objective(run.solution.x, run.solution.s, run.solution.d);
  return run;
}

SparseSeaRun SolveSparse(const SparseDiagonalProblem& p,
                         const SeaOptions& opts) {
  SparseSea solver(p);
  return solver.Solve(opts);
}

FeasibilityReport CheckFeasibility(const SparseDiagonalProblem& p,
                                   const SparseSolution& sol) {
  const Vector rows = sol.x.RowSums();
  const Vector cols = sol.x.ColSums();
  const Vector& s_target = (p.mode() == TotalsMode::kFixed) ? p.s0() : sol.s;
  const Vector& d_target = (p.mode() == TotalsMode::kFixed) ? p.d0()
                           : (p.mode() == TotalsMode::kSam) ? sol.s
                                                            : sol.d;
  FeasibilityReport r;
  for (std::size_t i = 0; i < p.m(); ++i) {
    const double abs_res = std::abs(rows[i] - s_target[i]);
    r.max_row_abs = std::max(r.max_row_abs, abs_res);
    r.max_row_rel = std::max(
        r.max_row_rel, abs_res / std::max(1.0, std::abs(s_target[i])));
  }
  for (std::size_t j = 0; j < p.n(); ++j) {
    const double abs_res = std::abs(cols[j] - d_target[j]);
    r.max_col_abs = std::max(r.max_col_abs, abs_res);
    r.max_col_rel = std::max(
        r.max_col_rel, abs_res / std::max(1.0, std::abs(d_target[j])));
  }
  for (double v : sol.x.Values()) r.min_x = std::min(r.min_x, v);
  return r;
}

double DualValue(const SparseDiagonalProblem& p, const Vector& lambda,
                 const Vector& mu) {
  SEA_CHECK(lambda.size() == p.m() && mu.size() == p.n());
  double val = 0.0;
  for (std::size_t i = 0; i < p.m(); ++i) {
    const auto cols = p.x0().RowCols(i);
    const auto cvals = p.x0().RowValues(i);
    const auto gvals = p.gamma().RowValues(i);
    for (std::size_t k = 0; k < cols.size(); ++k)
      AddDualArc(val, cvals[k], gvals[k], lambda[i], mu[cols[k]]);
  }
  return AddDualTotals(val, p.totals(), lambda, mu);
}

double KktStationarityError(const SparseDiagonalProblem& p,
                            const SparseSolution& sol) {
  double err = 0.0;
  for (std::size_t i = 0; i < p.m(); ++i) {
    const auto cols = p.x0().RowCols(i);
    const auto cvals = p.x0().RowValues(i);
    const auto gvals = p.gamma().RowValues(i);
    const auto xvals = sol.x.RowValues(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const double resid = 2.0 * gvals[k] * (xvals[k] - cvals[k]) -
                           sol.lambda[i] - sol.mu[cols[k]];
      if (xvals[k] > 1e-12) {
        err = std::max(err, std::abs(resid));
      } else {
        err = std::max(err, -resid);
      }
      err = std::max(err, -xvals[k]);
    }
  }
  if (p.mode() == TotalsMode::kElastic) {
    for (std::size_t i = 0; i < p.m(); ++i)
      err = std::max(err, std::abs(2.0 * p.alpha()[i] *
                                       (sol.s[i] - p.s0()[i]) +
                                   sol.lambda[i]));
    for (std::size_t j = 0; j < p.n(); ++j)
      err = std::max(err, std::abs(2.0 * p.beta()[j] *
                                       (sol.d[j] - p.d0()[j]) +
                                   sol.mu[j]));
  } else if (p.mode() == TotalsMode::kSam) {
    for (std::size_t i = 0; i < p.n(); ++i)
      err = std::max(err, std::abs(2.0 * p.alpha()[i] *
                                       (sol.s[i] - p.s0()[i]) +
                                   sol.lambda[i] + sol.mu[i]));
  }
  return err;
}

}  // namespace sea
