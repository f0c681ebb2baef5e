#include "core/stopping.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace sea {

double RowTarget(const TotalsView& t, std::span<const double> lambda,
                 std::span<const double> mu, std::size_t i) {
  switch (t.mode) {
    case TotalsMode::kFixed:
      return t.s0[i];
    case TotalsMode::kElastic:
      return t.s0[i] - lambda[i] / (2.0 * t.alpha[i]);
    case TotalsMode::kSam:
      return t.s0[i] - (lambda[i] + mu[i]) / (2.0 * t.alpha[i]);
    case TotalsMode::kInterval:
      return std::clamp(t.s0[i] - lambda[i] / (2.0 * t.alpha[i]), t.s_lo[i],
                        t.s_hi[i]);
  }
  SEA_INTERNAL_CHECK(false);
  return 0.0;
}

double FoldRowResidual(StopCriterion c, double rowsum, double target,
                       double measure) {
  double r = std::abs(rowsum - target);
  if (c == StopCriterion::kResidualRel) r /= std::max(1.0, std::abs(target));
  // std::max drops NaN operands (the comparison is false), which would let
  // a NaN-poisoned row slip past the engine's breakdown guard; propagate it
  // so the measure itself reports the breakdown.
  if (std::isnan(r)) return r;
  return std::max(measure, r);
}

double MaxRowResidual(StopCriterion c, std::span<const double> rowsums,
                      const TotalsView& t, std::span<const double> lambda,
                      std::span<const double> mu) {
  double measure = 0.0;
  for (std::size_t i = 0; i < rowsums.size(); ++i) {
    const double target = RowTarget(t, lambda, mu, i);
    measure = FoldRowResidual(c, rowsums[i], target, measure);
  }
  return measure;
}

double EstimateItersToEpsilon(std::size_t it0, double m0, std::size_t it1,
                              double m1, double epsilon) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (!(m0 > 0.0) || !(m1 > 0.0) || !std::isfinite(m0) ||
      !std::isfinite(m1) || it1 <= it0)
    return nan;
  if (m1 <= epsilon) return 0.0;
  const double rho =
      std::pow(m1 / m0, 1.0 / static_cast<double>(it1 - it0));
  if (!(rho < 1.0)) return nan;  // no contraction: extrapolation is undefined
  const double eta = std::log(epsilon / m1) / std::log(rho);
  // rho can sit so close to 1 that log(rho) underflows to -0.0 and the
  // division yields +Inf (or epsilon<=0 makes the numerator -Inf). Callers
  // render estimates as JSON, where Inf/NaN must become null — keep the
  // contract "finite estimate or NaN" here rather than at every caller.
  if (!std::isfinite(eta) || eta < 0.0) return nan;
  return eta;
}

}  // namespace sea
