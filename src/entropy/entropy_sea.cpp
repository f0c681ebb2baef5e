#include "entropy/entropy_sea.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/iteration_engine.hpp"
#include "core/stopping.hpp"
#include "support/check.hpp"
#include "support/failpoint.hpp"

namespace sea {

void EntropyProblem::Validate() const {
  SEA_CHECK_MSG(x0.rows() > 0 && x0.cols() > 0, "empty problem");
  for (double v : x0.Flat())
    SEA_CHECK_MSG(v >= 0.0, "base matrix must be nonnegative");
  SEA_CHECK_MSG(s0.size() == x0.rows() && d0.size() == x0.cols(),
                "totals size mismatch");
  double ssum = 0.0, dsum = 0.0;
  for (double v : s0) {
    SEA_CHECK_MSG(v >= 0.0, "totals must be nonnegative");
    ssum += v;
  }
  for (double v : d0) {
    SEA_CHECK_MSG(v >= 0.0, "totals must be nonnegative");
    dsum += v;
  }
  SEA_CHECK_MSG(std::abs(ssum - dsum) <= 1e-8 * std::max({1.0, ssum, dsum}),
                "totals are inconsistent");
}

double EntropyObjective(const DenseMatrix& x, const DenseMatrix& x0) {
  SEA_CHECK(x.SameShape(x0));
  double obj = 0.0;
  const auto xf = x.Flat();
  const auto bf = x0.Flat();
  for (std::size_t k = 0; k < xf.size(); ++k) {
    SEA_CHECK_MSG(xf[k] >= 0.0, "estimate must be nonnegative");
    if (bf[k] == 0.0) {
      SEA_CHECK_MSG(xf[k] == 0.0,
                    "estimate must vanish on the base matrix's zeros");
      continue;
    }
    if (xf[k] > 0.0) obj += xf[k] * std::log(xf[k] / bf[k]) - xf[k];
    obj += bf[k];
  }
  return obj;
}

double EntropyDualValue(const EntropyProblem& p, const Vector& lambda,
                        const Vector& mu) {
  const std::size_t m = p.x0.rows(), n = p.x0.cols();
  SEA_CHECK(lambda.size() == m && mu.size() == n);
  double val = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = p.x0.Row(i);
    for (std::size_t j = 0; j < n; ++j)
      if (row[j] > 0.0)
        val += row[j] * (1.0 - std::exp(lambda[i] + mu[j]));
  }
  for (std::size_t i = 0; i < m; ++i) val += lambda[i] * p.s0[i];
  for (std::size_t j = 0; j < n; ++j) val += mu[j] * p.d0[j];
  return val;
}

namespace {

// Entropy (RAS) backend for the shared iteration engine. The sweeps are
// closed-form row/column scalings (no breakpoints, no per-market task
// costs); x is only materialized at check time, from the scaling factors.
class EntropyBackend final : public SeaIterationBackend {
 public:
  EntropyBackend(const EntropyProblem& p, Vector& lambda, Vector& mu,
                 DenseMatrix& x)
      : p_(p),
        lambda_(lambda),
        mu_(mu),
        x_(x),
        exp_mu_(p.x0.cols()),
        exp_lambda_(p.x0.rows()),
        lambda_good_(p.x0.rows(), 0.0),
        mu_good_(p.x0.cols(), 0.0) {}

  // Row step: exact dual maximization over lambda (a row scaling).
  SweepStats RowSweep() override {
    const std::size_t m = p_.x0.rows(), n = p_.x0.cols();
    SweepStats stats;
    for (std::size_t j = 0; j < n; ++j) exp_mu_[j] = std::exp(mu_[j]);
    for (std::size_t i = 0; i < m; ++i) {
      const auto row = p_.x0.Row(i);
      double denom = 0.0;
      for (std::size_t j = 0; j < n; ++j) denom += row[j] * exp_mu_[j];
      if (denom > 0.0) {
        // s0 == 0 legitimately drives the scaling to -inf; divergent
        // (infeasible) instances drive it to +inf. Clamp to +-700 so the
        // iterate stays finite and the residual check reports the failure
        // instead of silently comparing NaNs.
        lambda_[i] =
            (p_.s0[i] > 0.0)
                ? std::clamp(std::log(p_.s0[i] / denom), -700.0, 700.0)
                : -700.0;
      }
      stats.total_ops.flops += 2 * n + 2;
    }
    // Fault injection AFTER the sweep so the poison survives into the
    // check (the sweep body overwrites every lambda it computes).
    SEA_FAILPOINT_SITE("sea.entropy.poison_lambda")
    if (fail::Triggered("sea.entropy.poison_lambda"))
      lambda_[0] = std::numeric_limits<double>::quiet_NaN();
    return stats;
  }

  // Column step: exact dual maximization over mu (a column scaling).
  SweepStats ColSweep(bool /*materialize*/) override {
    const std::size_t m = p_.x0.rows(), n = p_.x0.cols();
    SweepStats stats;
    for (std::size_t i = 0; i < m; ++i)
      exp_lambda_[i] = std::exp(lambda_[i]);
    for (std::size_t j = 0; j < n; ++j) {
      double denom = 0.0;
      for (std::size_t i = 0; i < m; ++i)
        denom += p_.x0(i, j) * exp_lambda_[i];
      if (denom > 0.0)
        mu_[j] = (p_.d0[j] > 0.0)
                     ? std::clamp(std::log(p_.d0[j] / denom), -700.0, 700.0)
                     : -700.0;
      stats.total_ops.flops += 2 * m + 2;
    }
    return stats;
  }

  // Materialize x = x0 .* exp(lambda_i + mu_j) for the check.
  void BeginCheck() override {
    const std::size_t m = p_.x0.rows(), n = p_.x0.cols();
    for (std::size_t j = 0; j < n; ++j) exp_mu_[j] = std::exp(mu_[j]);
    for (std::size_t i = 0; i < m; ++i) {
      const auto base = p_.x0.Row(i);
      auto xi = x_.Row(i);
      for (std::size_t j = 0; j < n; ++j)
        xi[j] = base[j] * exp_lambda_[i] * exp_mu_[j];
    }
  }

  double ResidualMeasure(StopCriterion c) override {
    // Columns are exact after the column step; measure row residuals
    // against the fixed targets.
    const Vector rows = x_.RowSums();
    TotalsView totals;  // kFixed: the targets are s0
    totals.s0 = p_.s0;
    return MaxRowResidual(c, rows, totals, {}, {});
  }

  double DiffFromSnapshot() override { return x_.MaxAbsDiff(x_prev_); }
  void SnapshotIterate() override { x_prev_ = x_; }

  std::uint64_t CheckCost() const override {
    return 2 * static_cast<std::uint64_t>(p_.x0.rows()) * p_.x0.cols();
  }

  // Breakdown recovery: the duals are the whole iterate state, so capturing
  // them is O(m + n); restore re-derives the scalings and re-materializes x.
  void SaveGoodIterate() override {
    lambda_good_ = lambda_;
    mu_good_ = mu_;
  }
  void RestoreGoodIterate() override {
    lambda_ = lambda_good_;
    mu_ = mu_good_;
    for (std::size_t i = 0; i < lambda_.size(); ++i)
      exp_lambda_[i] = std::exp(lambda_[i]);
    BeginCheck();  // rebuilds exp_mu_ and x from the restored duals
  }

 private:
  const EntropyProblem& p_;
  Vector& lambda_;
  Vector& mu_;
  DenseMatrix& x_;
  Vector exp_mu_, exp_lambda_;
  DenseMatrix x_prev_;
  // Last duals that passed a finite check (initialized to the start point,
  // so a first-check breakdown still restores to x = x0 scalings).
  Vector lambda_good_, mu_good_;
};

}  // namespace

EntropySeaRun SolveEntropy(const EntropyProblem& p, const SeaOptions& opts) {
  p.Validate();
  const std::size_t m = p.x0.rows(), n = p.x0.cols();

  EntropySeaRun run;
  run.lambda.assign(m, 0.0);
  run.mu.assign(n, 0.0);
  run.x = p.x0;
  SeaResult& result = run.result;

  // A row (column) with empty support but a positive target makes the
  // problem infeasible regardless of iteration; diagnose up front and skip
  // the solve entirely (the returned estimate is the base matrix).
  {
    const Vector rows = p.x0.RowSums();
    const Vector cols = p.x0.ColSums();
    bool infeasible = false;
    for (std::size_t i = 0; i < m; ++i)
      if (rows[i] == 0.0 && p.s0[i] > 0.0) infeasible = true;
    for (std::size_t j = 0; j < n; ++j)
      if (cols[j] == 0.0 && p.d0[j] > 0.0) infeasible = true;
    if (infeasible) {
      result.status = SolveStatus::kInfeasible;
      result.objective = std::numeric_limits<double>::infinity();
      return run;
    }
  }

  EntropyBackend backend(p, run.lambda, run.mu, run.x);
  result = RunIterationEngine(backend, opts);

  // Degraded terminations (the engine's stall / breakdown / budget guards)
  // return the last good iterate but no valid estimate; the objective is
  // defined only at convergence.
  result.objective = result.converged()
                         ? EntropyObjective(run.x, p.x0)
                         : std::numeric_limits<double>::infinity();
  return run;
}

namespace {

// Entropy SAM-balancing backend. The whole iteration is one Gauss-Seidel
// pass over the potentials, so it runs as the engine's row half-step and
// the column half-step is empty; the native stopping measure is the worst
// relative account imbalance regardless of the requested criterion.
class EntropySamBackend final : public SeaIterationBackend {
 public:
  EntropySamBackend(const DenseMatrix& x0, Vector& nu, DenseMatrix& x)
      : x0_(x0),
        nu_(nu),
        x_(x),
        expp_(x0.rows(), 1.0),    // e^{nu}
        expm_(x0.rows(), 1.0),    // e^{-nu}
        nu_good_(x0.rows(), 0.0) {}

  // Gauss-Seidel over the potentials with exact coordinate maximization.
  SweepStats RowSweep() override {
    const std::size_t n = x0_.rows();
    SweepStats stats;
    for (std::size_t i = 0; i < n; ++i) {
      double receipts = 0.0;   // sum_j x0_ji e^{nu_j}, j != i
      double expenses = 0.0;   // sum_j x0_ij e^{-nu_j}, j != i
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        receipts += x0_(j, i) * expp_[j];
        expenses += x0_(i, j) * expm_[j];
      }
      stats.total_ops.flops += 4 * n;
      if (receipts > 0.0 && expenses > 0.0) {
        const double nu =
            std::clamp(0.5 * std::log(receipts / expenses), -700.0, 700.0);
        nu_[i] = nu;
        expp_[i] = std::exp(nu);
        expm_[i] = 1.0 / expp_[i];
      }
      // An account with one empty off-diagonal side balances trivially
      // (its flows all vanish or are diagonal); keep nu_i = 0.
    }
    return stats;
  }

  SweepStats ColSweep(bool /*materialize*/) override { return {}; }

  void BeginCheck() override {
    const std::size_t n = x0_.rows();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        x_(i, j) = x0_(i, j) * expp_[i] * expm_[j];
  }

  // Account balancing has one native measure; honor it for any request.
  StopCriterion EffectiveCriterion(StopCriterion /*c*/) const override {
    return StopCriterion::kResidualRel;
  }

  // Worst relative account imbalance of the materialized iterate.
  double ResidualMeasure(StopCriterion /*c*/) override {
    const std::size_t n = x0_.rows();
    double measure = 0.0;
    const Vector rows = x_.RowSums();
    const Vector cols = x_.ColSums();
    for (std::size_t i = 0; i < n; ++i)
      measure = std::max(measure, std::abs(rows[i] - cols[i]) /
                                      std::max(1.0, rows[i]));
    return measure;
  }

  // Unreachable: EffectiveCriterion never selects kXChange.
  double DiffFromSnapshot() override { return 0.0; }
  void SnapshotIterate() override {}

  std::uint64_t CheckCost() const override {
    return 3 * static_cast<std::uint64_t>(x0_.rows()) * x0_.rows();
  }

  void SaveGoodIterate() override { nu_good_ = nu_; }
  void RestoreGoodIterate() override {
    nu_ = nu_good_;
    for (std::size_t i = 0; i < nu_.size(); ++i) {
      expp_[i] = std::exp(nu_[i]);
      expm_[i] = 1.0 / expp_[i];
    }
    BeginCheck();  // re-materialize x from the restored potentials
  }

 private:
  const DenseMatrix& x0_;
  Vector& nu_;
  DenseMatrix& x_;
  Vector expp_, expm_;
  Vector nu_good_;
};

}  // namespace

EntropySamRun SolveEntropySam(const DenseMatrix& x0, const SeaOptions& opts) {
  SEA_CHECK_MSG(x0.rows() == x0.cols(), "SAM balancing needs a square matrix");
  for (double v : x0.Flat())
    SEA_CHECK_MSG(v >= 0.0, "base matrix must be nonnegative");
  const std::size_t n = x0.rows();

  EntropySamRun run;
  run.nu.assign(n, 0.0);
  run.x = x0;

  EntropySamBackend backend(x0, run.nu, run.x);
  run.result = RunIterationEngine(backend, opts);
  SeaResult& result = run.result;

  result.objective = result.converged()
                         ? EntropyObjective(run.x, x0)
                         : std::numeric_limits<double>::infinity();
  return run;
}

}  // namespace sea
