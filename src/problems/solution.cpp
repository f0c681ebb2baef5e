#include "problems/solution.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace sea {

template <class Matrix>
BasicSolution<Matrix> RecoverPrimal(const BasicDiagonalProblem<Matrix>& p,
                                    Vector lambda, Vector mu) {
  const std::size_t m = p.m(), n = p.n();
  SEA_CHECK(lambda.size() == m);
  SEA_CHECK(mu.size() == n);

  BasicSolution<Matrix> sol;
  sol.x = p.x0();  // the layout; every arc value is overwritten
  const auto x0 = ArcValues(p.x0());
  const auto g = ArcValues(p.gamma());
  const auto x = MutableArcValues(sol.x);
  ForEachArc(p.x0(), [&](std::size_t i, std::size_t j, std::size_t k) {
    x[k] = std::max(0.0, x0[k] + (lambda[i] + mu[j]) / (2.0 * g[k]));
  });

  switch (p.mode()) {
    case TotalsMode::kFixed:
      sol.s = p.s0();
      sol.d = p.d0();
      break;
    case TotalsMode::kElastic:
      sol.s.resize(m);
      sol.d.resize(n);
      for (std::size_t i = 0; i < m; ++i)
        sol.s[i] = p.s0()[i] - lambda[i] / (2.0 * p.alpha()[i]);
      for (std::size_t j = 0; j < n; ++j)
        sol.d[j] = p.d0()[j] - mu[j] / (2.0 * p.beta()[j]);
      break;
    case TotalsMode::kInterval:
      // The elastic response clamped to the interval (the Lagrangian
      // minimizer over the box).
      sol.s.resize(m);
      sol.d.resize(n);
      for (std::size_t i = 0; i < m; ++i)
        sol.s[i] = std::clamp(p.s0()[i] - lambda[i] / (2.0 * p.alpha()[i]),
                              p.s_lo()[i], p.s_hi()[i]);
      for (std::size_t j = 0; j < n; ++j)
        sol.d[j] = std::clamp(p.d0()[j] - mu[j] / (2.0 * p.beta()[j]),
                              p.d_lo()[j], p.d_hi()[j]);
      break;
    case TotalsMode::kSam:
      sol.s.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        sol.s[i] = p.s0()[i] - (lambda[i] + mu[i]) / (2.0 * p.alpha()[i]);
      sol.d = sol.s;
      break;
  }
  sol.lambda = std::move(lambda);
  sol.mu = std::move(mu);
  return sol;
}

template <class Matrix>
double DualValue(const BasicDiagonalProblem<Matrix>& p, const Vector& lambda,
                 const Vector& mu) {
  SEA_CHECK(lambda.size() == p.m() && mu.size() == p.n());
  double val = 0.0;
  const auto x0 = ArcValues(p.x0());
  const auto g = ArcValues(p.gamma());
  ForEachArc(p.x0(), [&](std::size_t i, std::size_t j, std::size_t k) {
    AddDualArc(val, x0[k], g[k], lambda[i], mu[j]);
  });
  return AddDualTotals(val, p.totals(), lambda, mu);
}

template Solution RecoverPrimal(const DiagonalProblem&, Vector, Vector);
template SparseSolution RecoverPrimal(const SparseDiagonalProblem&, Vector,
                                      Vector);
template double DualValue(const DiagonalProblem&, const Vector&, const Vector&);
template double DualValue(const SparseDiagonalProblem&, const Vector&,
                          const Vector&);

double AddDualTotals(double val, const TotalsView& p,
                     std::span<const double> lambda,
                     std::span<const double> mu) {
  const std::size_t m = lambda.size(), n = mu.size();
  switch (p.mode) {
    case TotalsMode::kFixed:
      // zeta_3 (paper eq. (51)).
      for (std::size_t i = 0; i < m; ++i) val += lambda[i] * p.s0[i];
      for (std::size_t j = 0; j < n; ++j) val += mu[j] * p.d0[j];
      break;
    case TotalsMode::kElastic:
      // zeta_1 (paper eq. (24)).
      for (std::size_t i = 0; i < m; ++i) {
        const double t = 2.0 * p.alpha[i] * p.s0[i] - lambda[i];
        val -= t * t / (4.0 * p.alpha[i]);
        val += p.alpha[i] * p.s0[i] * p.s0[i];
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double t = 2.0 * p.beta[j] * p.d0[j] - mu[j];
        val -= t * t / (4.0 * p.beta[j]);
        val += p.beta[j] * p.d0[j] * p.d0[j];
      }
      break;
    case TotalsMode::kSam:
      // zeta_2 (paper eq. (41)).
      for (std::size_t i = 0; i < n; ++i) {
        const double t = 2.0 * p.alpha[i] * p.s0[i] - lambda[i] - mu[i];
        val -= t * t / (4.0 * p.alpha[i]);
        val += p.alpha[i] * p.s0[i] * p.s0[i];
      }
      break;
    case TotalsMode::kInterval:
      // min over lo <= s <= hi of alpha (s - s0)^2 + lambda s: attained at
      // the clamped elastic response; evaluate directly (no closed square
      // completion once the clamp binds).
      for (std::size_t i = 0; i < m; ++i) {
        const double s = std::clamp(p.s0[i] - lambda[i] / (2.0 * p.alpha[i]),
                                    p.s_lo[i], p.s_hi[i]);
        const double dev = s - p.s0[i];
        val += p.alpha[i] * dev * dev + lambda[i] * s;
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double d = std::clamp(p.d0[j] - mu[j] / (2.0 * p.beta[j]),
                                    p.d_lo[j], p.d_hi[j]);
        const double dev = d - p.d0[j];
        val += p.beta[j] * dev * dev + mu[j] * d;
      }
      break;
  }
  return val;
}

}  // namespace sea
