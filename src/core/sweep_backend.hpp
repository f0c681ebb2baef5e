// The SEA backend of the diagonal problem on either layout
// (problems/layout.hpp), run by core/diagonal_sea.cpp's solver.
//
// A solve is the same dual block-coordinate ascent on both layouts: a row
// sweep over the problem's centers/weights, a column sweep over their
// transposed copies, with the primal materialized in the column-sweep
// layout on check iterations. Matrix is that layout — DenseMatrix or
// SparseMatrix, the two EquilibrateSide accepts. This class owns all of
// it: the arc slopes q = 1/(2 gamma) of both layouts, computed once per
// solve, per-mode MarketSide setup, sweep options and sort caches, both
// half-steps and their per-worker scratch, the residual measure and its
// per-market attribution, the kXChange measure, good-iterate save/restore,
// row-dual snapshot/blend, checkpoint capture/restore of the duals, the
// fixed and SAM regimes' multiplier rebalance (core/multiplier_rebalance.hpp)
// and, on elastic problems, the Anderson extrapolation of the column duals
// under its dual-ascent safeguard (see RowSweep), which reads the dual
// value the sweeps compute.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/extrapolation.hpp"
#include "core/iteration_engine.hpp"
#include "core/multiplier_rebalance.hpp"
#include "core/stopping.hpp"
#include "obs/market_stats.hpp"
#include "parallel/parallel_for.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/solution.hpp"

namespace sea {

template <class Matrix>
class SweepBackend final : public SeaIterationBackend {
 public:
  // x0_t: the column sweep's centers (the column sweep's slopes are the
  // transpose of gamma's). xt_, the primal in the column-sweep layout, is
  // written on check iterations only, so between checks it holds the
  // previous check's primal — the kXChange snapshot. The problem, x0_t and
  // the duals must outlive the backend.
  SweepBackend(const BasicDiagonalProblem<Matrix>& p, const Matrix& x0_t,
               const SeaOptions& opts, Vector& lambda, Vector& mu)
      : lambda_(lambda),
        mu_(mu),
        p_(p),
        xt_(x0_t),  // the layout; its values are overwritten per check
        rowsum_(lambda.size(), 0.0),
        totals_(p.totals()),
        x0_t_(x0_t),
        slopes_(ArcSlopes(p.gamma())),
        slopes_t_(slopes_.Transposed()) {
    row_side_.mode = totals_.mode;
    row_side_.t0 = totals_.s0;
    col_side_.mode = totals_.mode;
    switch (totals_.mode) {
      case TotalsMode::kFixed:
        col_side_.t0 = totals_.d0;
        break;
      case TotalsMode::kElastic:
      case TotalsMode::kInterval:
        row_side_.weight = totals_.alpha;
        row_side_.lo = totals_.s_lo;
        row_side_.hi = totals_.s_hi;
        col_side_.t0 = totals_.d0;
        col_side_.weight = totals_.beta;
        col_side_.lo = totals_.d_lo;
        col_side_.hi = totals_.d_hi;
        break;
      case TotalsMode::kSam:
        row_side_.weight = totals_.alpha;
        row_side_.coupling = mu_;  // rebound before each sweep
        col_side_.t0 = totals_.s0;
        col_side_.weight = totals_.alpha;
        col_side_.coupling = lambda_;
        break;
    }
    scratch_.resize(WorkerCount(opts.pool));
    sweep_opts_.pool = opts.pool;
    sweep_opts_.scratch = scratch_;
    sweep_opts_.attribution = opts.attribution;
    if (opts.attribution != nullptr)
      opts.attribution->Reset(lambda.size(), mu.size());
    row_orders_.Reset(lambda.size());
    col_orders_.Reset(mu.size());
    if (totals_.mode == TotalsMode::kElastic) {
      window_.Reset(mu.size());
      mu_in_.resize(mu.size());
    }
  }

  // On elastic problems the row sweep runs against mu_hat, the Anderson
  // combination of the window's last column-sweep outputs, and keeps the
  // result only if zeta(lambda(mu_hat), mu_hat) >= zeta at the last
  // accepted point; otherwise it redoes the sweep against the plain mu and
  // drops the window's pairs. Both sweeps' work is counted. Each zeta is
  // summed from the shares the sweep's markets wrote (SideDual), in market
  // order, so it has the same bits at any thread count. Every point the
  // column sweep, the checks and the observers see has a zeta no lower
  // than the last, so the eq. (76) argument holds for that sequence. The
  // other regimes sweep against mu alone: fixed and SAM problems converge
  // in a few iterations, and their gauge freedom (lambda + c, mu - c)
  // leaves the least squares singular.
  SweepStats RowSweep() override {
    last_extrapolation_ = Extrapolation::kNone;
    if (totals_.mode != TotalsMode::kElastic) return SweepRows(mu_);
    if (!window_.Extrapolate(mu_in_)) {
      window_.DropPairs();  // no pairs yet, or a rank-deficient window
      mu_in_ = mu_;
      return SweepRows(mu_);
    }
    SweepStats stats = SweepRows(mu_in_, &row_dual_);
    if (SweptZeta(row_dual_, col_side_, mu_in_) >= window_.zeta()) {
      last_extrapolation_ = Extrapolation::kAccepted;
      return stats;
    }
    last_extrapolation_ = Extrapolation::kRejected;
    window_.DropPairs();
    mu_in_ = mu_;
    const SweepStats plain = SweepRows(mu_);
    stats.total_ops += plain.total_ops;
    stats.order_reuses += plain.order_reuses;
    stats.markets += plain.markets;
    return stats;
  }

  Extrapolation LastExtrapolation() const override {
    return last_extrapolation_;
  }

  void RestartExtrapolation() override { window_.Clear(); }

  SweepStats ColSweep(bool materialize) override {
    if (totals_.mode == TotalsMode::kSam) col_side_.coupling = lambda_;
    sweep_opts_.profile_phase = "equilibrate.cols";
    sweep_opts_.sort_cache = &col_orders_;
    // column markets: slots [m, m+n)
    sweep_opts_.attribution_base = lambda_.size();
    const bool elastic = totals_.mode == TotalsMode::kElastic;
    sweep_opts_.dual = elastic ? &col_dual_ : nullptr;
    SweepStats stats =
        EquilibrateSide(x0_t_, slopes_t_, lambda_, col_side_, mu_,
                        materialize ? &xt_ : nullptr, sweep_opts_);
    // The writeback overwrote the previous check's primal, folding
    // max |new - old| as it went: the kXChange measure, verified inside
    // the parallel sweep instead of a serial pass after it.
    if (materialize) xt_change_ = stats.max_change;
    if (elastic) {
      window_.Record(mu_in_, mu_);
      window_.set_zeta(SweptZeta(col_dual_, row_side_, lambda_));
    }
    return stats;
  }

  // Elastic solves record the last column sweep's zeta; the other regimes
  // pay a serial pass, only when record_dual_values asks for it.
  void RecordDualValue(std::vector<double>& out) override {
    out.push_back(totals_.mode == TotalsMode::kElastic
                      ? SweptZeta(col_dual_, row_side_, lambda_)
                      : DualValue(p_, lambda_, mu_));
  }

  double ResidualMeasure(StopCriterion c) override {
    // Row residual of the column-feasible iterate: after the column sweep
    // the column constraints hold exactly, so (by eq. (25)) the row residual
    // is the remaining dual-gradient component.
    AccumulateRowSums();
    return MaxRowResidual(c, rowsum_, totals_, lambda_, mu_);
  }

  void AttributeResidual(StopCriterion c, std::size_t iteration,
                         double measure) override {
    // Same per-row terms the aggregate measure maxes over; FoldRowResidual
    // from a zero running max yields exactly one row's contribution.
    AccumulateRowSums();
    const std::span<double> out = sweep_opts_.attribution->residual_scratch();
    double l1 = 0.0;
    for (std::size_t i = 0; i < rowsum_.size(); ++i) {
      const double target = RowTarget(totals_, lambda_, mu_, i);
      out[i] = FoldRowResidual(c, rowsum_[i], target, 0.0);
      l1 += out[i];
    }
    sweep_opts_.attribution->CommitCheck(iteration, measure, l1);
  }

  double DiffFromSnapshot() override { return xt_change_; }

  // xt_ is its own snapshot: the next materializing sweep reads it.
  void SnapshotIterate() override {}

  // Breakdown recovery: the primal is recovered from (lambda, mu) after the
  // run, so capturing the duals alone preserves a full last-good iterate.
  void SaveGoodIterate() override {
    lambda_good_ = lambda_;
    mu_good_ = mu_;
  }
  void RestoreGoodIterate() override {
    if (lambda_good_.empty()) {
      // No finite check yet: fall back to zero duals — x then recovers
      // from the unconstrained minimizer at the centers.
      std::fill(lambda_.begin(), lambda_.end(), 0.0);
      std::fill(mu_.begin(), mu_.end(), 0.0);
      return;
    }
    lambda_ = lambda_good_;
    mu_ = mu_good_;
  }

  // Durability hooks (core/checkpoint.hpp): the duals plus the kXChange
  // snapshot (xt_'s primal values only — the layout is pinned by the
  // fingerprint) are the whole resumable state. The engine owns
  // have_snapshot.
  bool CaptureIterate(CheckpointState& out) override {
    // One pass over the data per solve, only when checkpointing.
    if (!fingerprint_.has_value()) fingerprint_ = FingerprintProblem(p_);
    out.fingerprint = *fingerprint_;
    out.m = lambda_.size();
    out.n = mu_.size();
    out.lambda = lambda_;
    out.mu = mu_;
    window_.Capture(out);
    if (out.have_snapshot) {
      const auto vals = ArcValues(xt_);
      out.snapshot.assign(vals.begin(), vals.end());
    }
    return true;
  }

  bool RestoreIterate(const CheckpointState& in) override {
    if (in.lambda.size() != lambda_.size() || in.mu.size() != mu_.size())
      return false;
    if (in.have_snapshot && in.snapshot.size() != ArcValues(xt_).size())
      return false;
    if (totals_.mode == TotalsMode::kElastic ? !window_.Restore(in)
                                             : !in.accel_f.empty())
      return false;
    lambda_ = in.lambda;
    mu_ = in.mu;
    if (in.have_snapshot)
      std::copy(in.snapshot.begin(), in.snapshot.end(),
                MutableArcValues(xt_).begin());
    // The restored duals are the best known point: re-seat the good copies
    // so a later breakdown rolls back here, not to a pre-resume state.
    lambda_good_ = lambda_;
    mu_good_ = mu_;
    return true;
  }

  // Recovery-ladder hooks (docs/ROBUSTNESS.md "Recovery ladder").
  bool SupportsRecovery() const override { return true; }
  void SnapshotRowDuals(std::vector<double>& out) const override {
    out = lambda_;
  }
  void BlendRowDuals(const std::vector<double>& prev, double keep) override {
    for (std::size_t i = 0; i < lambda_.size(); ++i)
      lambda_[i] = prev[i] + keep * (lambda_[i] - prev[i]);
  }

  // The paper's Modified Algorithm: keep the dual iterates bounded by
  // rebalancing multipliers across the support graph's components (a gauge
  // shift with no effect on the primal trajectory). Only the fixed and SAM
  // regimes have that gauge freedom.
  void RebalanceDuals(const SeaOptions& opts) override {
    if (opts.multiplier_bound > 0.0 && HasGaugeFreedom())
      RebalanceMultipliers(p_, lambda_, mu_, opts.multiplier_bound);
  }

  // Rung 3's re-gauge: the same shift, relative to the current dual
  // magnitude, regardless of the multiplier_bound option.
  void ForceRebalance() override {
    if (!HasGaugeFreedom()) return;
    double max_abs = 0.0;
    for (double v : lambda_) max_abs = std::max(max_abs, std::abs(v));
    if (max_abs > 0.0) RebalanceMultipliers(p_, lambda_, mu_, 0.5 * max_abs);
  }

  std::uint64_t CheckCost() const override { return 2 * p_.nnz(); }

 private:
  bool HasGaugeFreedom() const {
    return totals_.mode == TotalsMode::kFixed ||
           totals_.mode == TotalsMode::kSam;
  }

  // Fills rowsum_ with the row sums of the materialized primal xt_, whose
  // rows are the problem's columns: one pass in storage order.
  void AccumulateRowSums() {
    std::fill(rowsum_.begin(), rowsum_.end(), 0.0);
    const auto xv = ArcValues(xt_);
    ForEachArc(xt_, [&](std::size_t, std::size_t i, std::size_t k) {
      rowsum_[i] += xv[k];
    });
  }

  // Row sweep against mu; dual, when set, receives the markets' shares of
  // zeta(lambda, mu).
  SweepStats SweepRows(const Vector& mu, SideDual* dual = nullptr) {
    if (totals_.mode == TotalsMode::kSam) row_side_.coupling = mu;
    sweep_opts_.profile_phase = "equilibrate.rows";
    sweep_opts_.sort_cache = &row_orders_;
    sweep_opts_.attribution_base = 0;  // row markets: slots [0, m)
    sweep_opts_.dual = dual;
    // Against mu = 0 (a cold start's first row sweep) lambda answers no
    // column information, so the column side's seed from it is provisional
    // (docs/KERNELS.md, "The provisional column seed").
    if (!col_orders_.informed() &&
        std::all_of(mu.begin(), mu.end(), [](double v) { return v == 0.0; }))
      col_orders_.MarkSeedProvisional();
    return EquilibrateSide(p_.x0(), slopes_, mu, row_side_, lambda_, nullptr,
                           sweep_opts_);
  }

  // zeta after a sweep that filled dual, against the crossing side's
  // multipliers `other`: the shares in market order, then other's totals.
  static double SweptZeta(const SideDual& dual, const MarketSide& other_side,
                          std::span<const double> other) {
    double z = 0.0;
    for (const double share : dual.share) z += share;
    return z + SideTotalsDual(other_side, other);
  }

  Vector& lambda_;
  Vector& mu_;
  const BasicDiagonalProblem<Matrix>& p_;
  Matrix xt_;
  Vector rowsum_;
  const TotalsView totals_;
  const Matrix& x0_t_;
  // Arc slopes 1/(2 gamma) in the row- and column-sweep layouts: the
  // weights never change during a solve, so no sweep divides by them.
  const Matrix slopes_;
  const Matrix slopes_t_;
  // Sweep descriptors (fixed for the whole run, modulo SAM coupling).
  MarketSide row_side_;
  MarketSide col_side_;
  SweepOptions sweep_opts_;
  // Persisted breakpoint orders, one cache per sweep side: each market's
  // first sweep seeds or cold-sorts, every later sweep repairs (8 bytes per
  // arc for a dense solve, 4 per side).
  SortOrderCache row_orders_, col_orders_;
  // One slot per pool worker, reused by every sweep of the solve.
  std::vector<SweepSlot> scratch_;
  // max |xt_ - previous check's xt_| from the last materializing sweep.
  double xt_change_ = 0.0;
  // Duals at the last finite check (empty until one passes).
  Vector lambda_good_, mu_good_;
  // Elastic only: the Anderson window, and the column duals the last row
  // sweep ran against (mu_hat when kept, else the plain mu) — the input of
  // the step the next column sweep completes.
  AndersonWindow window_;
  Vector mu_in_;
  // Elastic only: each side's shares of zeta from its last sweep that
  // computed them.
  SideDual row_dual_, col_dual_;
  Extrapolation last_extrapolation_ = Extrapolation::kNone;
  std::optional<std::uint64_t> fingerprint_;
};

}  // namespace sea
