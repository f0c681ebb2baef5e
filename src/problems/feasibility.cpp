#include "problems/feasibility.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace sea {

double FeasibilityReport::MaxAbs() const {
  return std::max(max_row_abs, max_col_abs);
}

double FeasibilityReport::MaxRel() const {
  return std::max(max_row_rel, max_col_rel);
}

template <class Matrix>
FeasibilityReport CheckFeasibility(const Matrix& x, const Vector& s,
                                   const Vector& d) {
  SEA_CHECK(s.size() == x.rows());
  SEA_CHECK(d.size() == x.cols());
  FeasibilityReport r;
  Vector rowsum(x.rows(), 0.0), colsum(x.cols(), 0.0);
  const auto xv = ArcValues(x);
  ForEachArc(x, [&](std::size_t i, std::size_t j, std::size_t k) {
    const double v = xv[k];
    rowsum[i] += v;
    colsum[j] += v;
    r.min_x = std::min(r.min_x, v);
  });
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double abs_res = std::abs(rowsum[i] - s[i]);
    r.max_row_abs = std::max(r.max_row_abs, abs_res);
    r.max_row_rel =
        std::max(r.max_row_rel, abs_res / std::max(1.0, std::abs(s[i])));
  }
  for (std::size_t j = 0; j < x.cols(); ++j) {
    const double abs_res = std::abs(colsum[j] - d[j]);
    r.max_col_abs = std::max(r.max_col_abs, abs_res);
    r.max_col_rel =
        std::max(r.max_col_rel, abs_res / std::max(1.0, std::abs(d[j])));
  }
  return r;
}

template <class Matrix>
FeasibilityReport CheckFeasibility(const BasicDiagonalProblem<Matrix>& p,
                                   const BasicSolution<Matrix>& sol) {
  switch (p.mode()) {
    case TotalsMode::kFixed:
      return CheckFeasibility(sol.x, p.s0(), p.d0());
    case TotalsMode::kElastic:
    case TotalsMode::kInterval:
      return CheckFeasibility(sol.x, sol.s, sol.d);
    case TotalsMode::kSam:
      return CheckFeasibility(sol.x, sol.s, sol.s);
  }
  SEA_INTERNAL_CHECK(false);
  return {};
}

namespace {

// Stationarity violation for one x entry given its partial derivative
// residual "resid" (should be 0 where x > 0, >= 0 where x == 0).
double EntryViolation(double x, double resid) {
  constexpr double kSupportTol = 1e-12;
  if (x > kSupportTol) return std::abs(resid);
  return std::max(0.0, -resid);
}

}  // namespace

template <class Matrix>
double KktStationarityError(const BasicDiagonalProblem<Matrix>& p,
                            const BasicSolution<Matrix>& sol) {
  const std::size_t m = p.m(), n = p.n();
  SEA_CHECK(SameLayout(sol.x, p.x0()));
  SEA_CHECK(sol.lambda.size() == m && sol.mu.size() == n);
  double err = 0.0;

  const auto x0 = ArcValues(p.x0());
  const auto g = ArcValues(p.gamma());
  const auto x = ArcValues(sol.x);
  ForEachArc(p.x0(), [&](std::size_t i, std::size_t j, std::size_t k) {
    // eq. (20)/(38)
    const double resid =
        2.0 * g[k] * (x[k] - x0[k]) - sol.lambda[i] - sol.mu[j];
    err = std::max(err, EntryViolation(x[k], resid));
    err = std::max(err, -x[k]);  // nonnegativity
  });

  // One-sided stationarity of a box-constrained total: interior => 0,
  // at the lower bound the derivative may point up (resid >= 0), at the
  // upper bound down (resid <= 0).
  const auto box_violation = [](double value, double lo, double hi,
                                double resid) {
    constexpr double kEdgeTol = 1e-12;
    if (value <= lo + kEdgeTol) return std::max(0.0, -resid);
    if (value >= hi - kEdgeTol) return std::max(0.0, resid);
    return std::abs(resid);
  };

  switch (p.mode()) {
    case TotalsMode::kFixed:
      break;
    case TotalsMode::kElastic:
      for (std::size_t i = 0; i < m; ++i) {
        const double resid =
            2.0 * p.alpha()[i] * (sol.s[i] - p.s0()[i]) + sol.lambda[i];
        err = std::max(err, std::abs(resid));  // eq. (21)
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double resid =
            2.0 * p.beta()[j] * (sol.d[j] - p.d0()[j]) + sol.mu[j];
        err = std::max(err, std::abs(resid));  // eq. (22)
      }
      break;
    case TotalsMode::kInterval:
      for (std::size_t i = 0; i < m; ++i) {
        const double resid =
            2.0 * p.alpha()[i] * (sol.s[i] - p.s0()[i]) + sol.lambda[i];
        err = std::max(err, box_violation(sol.s[i], p.s_lo()[i], p.s_hi()[i],
                                          resid));
        err = std::max(err, p.s_lo()[i] - sol.s[i]);
        err = std::max(err, sol.s[i] - p.s_hi()[i]);
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double resid =
            2.0 * p.beta()[j] * (sol.d[j] - p.d0()[j]) + sol.mu[j];
        err = std::max(err, box_violation(sol.d[j], p.d_lo()[j], p.d_hi()[j],
                                          resid));
        err = std::max(err, p.d_lo()[j] - sol.d[j]);
        err = std::max(err, sol.d[j] - p.d_hi()[j]);
      }
      break;
    case TotalsMode::kSam:
      for (std::size_t i = 0; i < n; ++i) {
        const double resid = 2.0 * p.alpha()[i] * (sol.s[i] - p.s0()[i]) +
                             sol.lambda[i] + sol.mu[i];
        err = std::max(err, std::abs(resid));  // eq. (39)
      }
      break;
  }
  return err;
}

template FeasibilityReport CheckFeasibility(const DenseMatrix&, const Vector&,
                                            const Vector&);
template FeasibilityReport CheckFeasibility(const SparseMatrix&, const Vector&,
                                            const Vector&);
template FeasibilityReport CheckFeasibility(const DiagonalProblem&,
                                            const Solution&);
template FeasibilityReport CheckFeasibility(const SparseDiagonalProblem&,
                                            const SparseSolution&);
template double KktStationarityError(const DiagonalProblem&, const Solution&);
template double KktStationarityError(const SparseDiagonalProblem&,
                                     const SparseSolution&);

double KktStationarityError(const GeneralProblem& p, const Solution& sol) {
  const std::size_t m = p.m(), n = p.n();
  SEA_CHECK(sol.x.rows() == m && sol.x.cols() == n);
  Vector xv(sol.x.Flat().begin(), sol.x.Flat().end());
  Vector grad;
  p.GradientX(xv, grad);
  double err = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double li = sol.lambda[i];
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t k = i * n + j;
      const double resid = grad[k] - li - sol.mu[j];
      err = std::max(err, EntryViolation(xv[k], resid));
      err = std::max(err, -xv[k]);
    }
  }
  if (p.mode() == TotalsMode::kElastic) {
    Vector gs, gd;
    p.GradientS(sol.s, gs);
    p.GradientD(sol.d, gd);
    for (std::size_t i = 0; i < m; ++i)
      err = std::max(err, std::abs(gs[i] + sol.lambda[i]));
    for (std::size_t j = 0; j < n; ++j)
      err = std::max(err, std::abs(gd[j] + sol.mu[j]));
  } else if (p.mode() == TotalsMode::kSam) {
    Vector gs;
    p.GradientS(sol.s, gs);
    for (std::size_t i = 0; i < n; ++i)
      err = std::max(err, std::abs(gs[i] + sol.lambda[i] + sol.mu[i]));
  }
  return err;
}

}  // namespace sea
