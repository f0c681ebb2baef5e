#include "baselines/ras.hpp"

#include <algorithm>
#include <cmath>

#include "obs/profiler.hpp"
#include "support/check.hpp"

namespace sea {

const char* ToString(RasStatus s) {
  switch (s) {
    case RasStatus::kConverged:
      return "converged";
    case RasStatus::kIterationLimit:
      return "iteration-limit";
    case RasStatus::kInfeasibleSupport:
      return "infeasible-support";
    case RasStatus::kInconsistentTotals:
      return "inconsistent-totals";
  }
  return "?";
}

RasResult SolveRas(const DenseMatrix& x0, const Vector& s0, const Vector& d0,
                   const RasOptions& opts) {
  obs::ProfScope prof_solve("baseline.ras.solve");
  const std::size_t m = x0.rows(), n = x0.cols();
  SEA_CHECK(s0.size() == m && d0.size() == n);
  for (double v : x0.Flat())
    SEA_CHECK_MSG(v >= 0.0, "RAS requires a nonnegative base matrix");

  RasResult res;
  res.x = x0;
  res.row_multipliers.assign(m, 1.0);
  res.col_multipliers.assign(n, 1.0);

  double ssum = 0.0, dsum = 0.0;
  for (double v : s0) ssum += v;
  for (double v : d0) dsum += v;
  if (std::abs(ssum - dsum) > 1e-10 * std::max({1.0, ssum, dsum})) {
    res.status = RasStatus::kInconsistentTotals;
    return res;
  }

  for (std::size_t iter = 1; iter <= opts.max_iterations; ++iter) {
    res.iterations = iter;
    // Row scaling.
    for (std::size_t i = 0; i < m; ++i) {
      auto row = res.x.Row(i);
      double sum = 0.0;
      for (double v : row) sum += v;
      if (sum == 0.0) {
        if (s0[i] > 0.0) {
          res.status = RasStatus::kInfeasibleSupport;
          return res;
        }
        continue;
      }
      const double f = s0[i] / sum;
      for (double& v : row) v *= f;
      res.row_multipliers[i] *= f;
    }
    // Column scaling.
    Vector colsum(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const auto row = res.x.Row(i);
      for (std::size_t j = 0; j < n; ++j) colsum[j] += row[j];
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (colsum[j] == 0.0) {
        if (d0[j] > 0.0) {
          res.status = RasStatus::kInfeasibleSupport;
          return res;
        }
        continue;
      }
      const double f = d0[j] / colsum[j];
      if (f != 1.0)
        for (std::size_t i = 0; i < m; ++i) res.x(i, j) *= f;
      res.col_multipliers[j] *= f;
    }
    // Residual: after column scaling columns are exact; check rows.
    double max_rel = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double sum = 0.0;
      for (double v : res.x.Row(i)) sum += v;
      max_rel = std::max(max_rel, std::abs(sum - s0[i]) /
                                      std::max(1.0, std::abs(s0[i])));
    }
    res.final_residual = max_rel;
    if (max_rel <= opts.epsilon) {
      res.status = RasStatus::kConverged;
      return res;
    }
  }
  res.status = RasStatus::kIterationLimit;
  return res;
}

}  // namespace sea
