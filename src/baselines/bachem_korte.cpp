#include "baselines/bachem_korte.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/factorizations.hpp"
#include "obs/profiler.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace sea {

namespace {

// Residual summary for the stopping rule.
struct Residuals {
  double max_rel = 0.0;  // constraint residuals, relative
  double neg = 0.0;      // most negative entry, as a positive number
  double Max() const { return std::max(max_rel, neg); }
};

Residuals ComputeResiduals(const Vector& x, const GeneralProblem& p) {
  const std::size_t m = p.m(), n = p.n();
  Residuals r;
  Vector colsum(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double rowsum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double v = x[i * n + j];
      rowsum += v;
      colsum[j] += v;
      if (v < 0.0) r.neg = std::max(r.neg, -v);
    }
    r.max_rel = std::max(r.max_rel, std::abs(rowsum - p.s0()[i]) /
                                        std::max(1.0, std::abs(p.s0()[i])));
  }
  for (std::size_t j = 0; j < n; ++j)
    r.max_rel = std::max(r.max_rel, std::abs(colsum[j] - p.d0()[j]) /
                                        std::max(1.0, std::abs(p.d0()[j])));
  return r;
}

}  // namespace

BachemKorteRun SolveBachemKorte(const GeneralProblem& problem,
                                const BachemKorteOptions& opts) {
  problem.Validate();
  SEA_CHECK_MSG(problem.mode() == TotalsMode::kFixed,
                "B-K handles the fixed-totals regime");
  const std::size_t m = problem.m(), n = problem.n();
  const std::size_t mn = m * n;
  SEA_CHECK_MSG(mn <= 4096,
                "B-K materializes Q^{-1}; use SEA or RC at this scale "
                "(the paper likewise stopped B-K at G = 900x900)");

  obs::ProfScope prof_solve("baseline.bk.solve");
  Stopwatch wall;
  const double cpu0 = ProcessCpuSeconds();

  // Q = 2G; factor once and materialize Q^{-1} (symmetric).
  DenseMatrix q(mn, mn);
  for (std::size_t a = 0; a < mn; ++a)
    for (std::size_t b = 0; b < mn; ++b) q(a, b) = 2.0 * problem.G()(a, b);
  auto chol = Cholesky::Factor(q);
  SEA_CHECK_MSG(chol.has_value(), "G must be positive definite for B-K");

  DenseMatrix qinv(mn, mn);
  {
    obs::ProfScope prof("bk.materialize_qinv");
    Vector e(mn, 0.0);
    for (std::size_t k = 0; k < mn; ++k) {
      e[k] = 1.0;
      Vector col = chol->Solve(e);
      for (std::size_t a = 0; a < mn; ++a) qinv(a, k) = col[a];
      e[k] = 0.0;
    }
  }

  // Per-constraint Q^{-1} a_k columns and curvatures D_k = a_k^T Q^{-1} a_k.
  // Row i: a = indicator of {i*n + j : j}; column j: indicator of
  // {i*n + j : i}; nonnegativity k: a = -e_k.
  DenseMatrix row_dir(m, mn, 0.0);  // Q^{-1} a for each row constraint
  Vector row_curv(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    auto dir = row_dir.Row(i);
    for (std::size_t j = 0; j < n; ++j) {
      const auto qcol = qinv.Row(i * n + j);  // symmetric: row == column
      for (std::size_t a = 0; a < mn; ++a) dir[a] += qcol[a];
    }
    for (std::size_t j = 0; j < n; ++j) row_curv[i] += dir[i * n + j];
  }
  DenseMatrix col_dir(n, mn, 0.0);
  Vector col_curv(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    auto dir = col_dir.Row(j);
    for (std::size_t i = 0; i < m; ++i) {
      const auto qcol = qinv.Row(i * n + j);
      for (std::size_t a = 0; a < mn; ++a) dir[a] += qcol[a];
    }
    for (std::size_t i = 0; i < m; ++i) col_curv[j] += dir[i * n + j];
  }

  // Dual variables: lambda (rows, free), mu (columns, free), z (>= 0).
  Vector lambda(m, 0.0), mu(n, 0.0), z(mn, 0.0);

  // Primal for the initial duals: x = -Q^{-1} q.
  Vector x(mn, 0.0);
  {
    const Vector& qlin = problem.cx();
    for (std::size_t a = 0; a < mn; ++a) {
      double acc = 0.0;
      const auto row = qinv.Row(a);
      for (std::size_t b = 0; b < mn; ++b) acc += row[b] * qlin[b];
      x[a] = -acc;
    }
  }

  BachemKorteRun run;
  BachemKorteResult& res = run.result;

  for (std::size_t sweep = 1; sweep <= opts.max_sweeps; ++sweep) {
    // Row equality multipliers: enforce a^T x = s0_i exactly.
    for (std::size_t i = 0; i < m; ++i) {
      double ax = 0.0;
      for (std::size_t j = 0; j < n; ++j) ax += x[i * n + j];
      const double delta = (ax - problem.s0()[i]) / row_curv[i];
      if (delta == 0.0) continue;
      lambda[i] += delta;
      const auto dir = row_dir.Row(i);
      for (std::size_t a = 0; a < mn; ++a) x[a] -= delta * dir[a];
    }
    // Column equality multipliers.
    for (std::size_t j = 0; j < n; ++j) {
      double ax = 0.0;
      for (std::size_t i = 0; i < m; ++i) ax += x[i * n + j];
      const double delta = (ax - problem.d0()[j]) / col_curv[j];
      if (delta == 0.0) continue;
      mu[j] += delta;
      const auto dir = col_dir.Row(j);
      for (std::size_t a = 0; a < mn; ++a) x[a] -= delta * dir[a];
    }
    // Nonnegativity multipliers (projected update: z_k >= 0).
    for (std::size_t k = 0; k < mn; ++k) {
      // Constraint -x_k <= 0: violation is -x_k; curvature qinv(k,k).
      const double delta_raw = -x[k] / qinv(k, k);
      const double z_new = std::max(0.0, z[k] + delta_raw);
      const double applied = z_new - z[k];
      if (applied == 0.0) continue;
      z[k] = z_new;
      // a = -e_k, so x <- x - Q^{-1} a * applied = x + Q^{-1} e_k * applied.
      const auto qcol = qinv.Row(k);
      for (std::size_t a = 0; a < mn; ++a) x[a] += applied * qcol[a];
    }

    res.sweeps = sweep;
    const Residuals r = ComputeResiduals(x, problem);
    res.final_residual = r.Max();
    if (r.Max() <= opts.epsilon) {
      res.converged = true;
      break;
    }
  }

  run.solution.x = DenseMatrix(m, n);
  for (std::size_t k = 0; k < mn; ++k)
    run.solution.x.Flat()[k] = std::max(0.0, x[k]);
  run.solution.s = problem.s0();
  run.solution.d = problem.d0();
  // Hildreth's multipliers relate to the KKT multipliers of the row/column
  // constraints with a sign flip (we ascend on Ax <= b form).
  run.solution.lambda.resize(m);
  run.solution.mu.resize(n);
  for (std::size_t i = 0; i < m; ++i) run.solution.lambda[i] = -lambda[i];
  for (std::size_t j = 0; j < n; ++j) run.solution.mu[j] = -mu[j];

  res.objective = problem.Objective(x, {}, {});
  res.wall_seconds = wall.Seconds();
  res.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return run;
}

}  // namespace sea
