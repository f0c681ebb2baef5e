#include "sparse/sparse_sea.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "core/iteration_engine.hpp"
#include "core/stopping.hpp"
#include "equilibration/equilibrator.hpp"
#include "obs/market_stats.hpp"
#include "obs/profiler.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/schedule.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/stopwatch.hpp"

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

// One sweep over a sparse side. centers/weights are sweep-major CSR (rows =
// markets); other_mult is indexed by the pattern's column ids. When x_out is
// non-null (same pattern as centers), allocations are materialized.
SweepStats SparseSweep(const SparseMatrix& centers, const SparseMatrix& weights,
                       std::span<const double> other_mult,
                       const MarketSide& side, std::span<double> mult_out,
                       SparseMatrix* x_out, const SweepOptions& opts) {
  const std::size_t markets = centers.rows();
  SweepStats stats;
  const bool record_costs = opts.record_task_costs || opts.scheduler != nullptr;
  if (record_costs) stats.task_costs.assign(markets, 0.0);
  if (opts.sort_cache != nullptr)
    SEA_CHECK_MSG(opts.sort_cache->size() == markets,
                  "sort cache not sized for this sweep side");

  const std::size_t workers = WorkerCount(opts.pool);
  std::vector<BreakpointWorkspace> ws(workers);
  std::vector<OpCounts> worker_ops(workers);
  std::vector<std::uint64_t> worker_reuses(workers, 0);

  ScheduleSpec sched;
  if (opts.scheduler != nullptr) sched = opts.scheduler->Next(markets, workers);

  const char* phase =
      opts.profile_phase != nullptr ? opts.profile_phase : "equilibrate.sweep";
  // Dynamic schedules invoke the body once per claimed chunk: accumulate
  // per-worker state with +=.
  obs::MarketAttribution* attr = opts.attribution;
  ForRangeWorker(opts.pool, markets,
                 [&](std::size_t begin, std::size_t end, std::size_t w) {
    obs::ProfScope prof(phase);
    BreakpointWorkspace& wksp = ws[w];
    OpCounts local;
    std::uint64_t reuses = 0;
    Stopwatch market_sw;
    for (std::size_t i = begin; i < end; ++i) {
      if (attr != nullptr) market_sw.Restart();
      const auto cols = centers.RowCols(i);
      wksp.Resize(cols.size());
      BuildArcsGather(centers.RowValues(i), weights.RowValues(i), other_mult,
                      cols, wksp.p(), wksp.q());
      double u = 0.0, v = 0.0;
      ClearingTarget(side, i, u, v);
      MarketOrder* order =
          opts.sort_cache != nullptr ? opts.sort_cache->At(i) : nullptr;
      BreakpointResult res = SolveMarket(wksp, u, v, opts.sort_policy, order);
      res.ops.flops += 2 * cols.size();
      SEA_INTERNAL_CHECK(res.feasible);
      mult_out[i] = res.lambda;
      if (x_out != nullptr) {
        Writeback(wksp.p(), wksp.q(), res.lambda, x_out->MutableRowValues(i));
        res.ops.flops += 2 * cols.size();
      }
      if (attr != nullptr)
        attr->RecordSolve(opts.attribution_base + i, res.active_count,
                          res.ops.breakpoints, market_sw.Seconds());
      if (record_costs) stats.task_costs[i] = res.ops.Work();
      if (res.order_reused) ++reuses;
      local += res.ops;
    }
    worker_ops[w] += local;
    worker_reuses[w] += reuses;
  }, sched);
  for (const auto& o : worker_ops) stats.total_ops += o;
  for (std::uint64_t r : worker_reuses) stats.order_reuses += r;
  stats.markets = markets;
  if (opts.scheduler != nullptr) {
    opts.scheduler->Update(stats.task_costs);
    if (!opts.record_task_costs) stats.task_costs.clear();
  }
  return stats;
}

// Sparse backend for the shared iteration engine: sweeps via SparseSweep
// over the problem and its transposed copies; the primal is materialized on
// the transposed pattern (xt) on check iterations.
class SparseBackend final : public SeaIterationBackend {
 public:
  SparseBackend(const SparseDiagonalProblem& p, const SparseMatrix& x0_t,
                const SparseMatrix& gamma_t, const SeaOptions& opts,
                Vector& lambda, Vector& mu)
      : p_(p),
        x0_t_(x0_t),
        gamma_t_(gamma_t),
        lambda_(lambda),
        mu_(mu),
        xt_(x0_t),  // pattern reused; values overwritten per check
        rowsum_(p.m(), 0.0) {
    row_side_.mode = p.mode();
    row_side_.t0 = p.s0();
    col_side_.mode = p.mode();
    switch (p.mode()) {
      case TotalsMode::kFixed:
        col_side_.t0 = p.d0();
        break;
      case TotalsMode::kElastic:
        row_side_.weight = p.alpha();
        col_side_.t0 = p.d0();
        col_side_.weight = p.beta();
        break;
      case TotalsMode::kSam:
        row_side_.weight = p.alpha();
        row_side_.coupling = mu_;
        col_side_.t0 = p.s0();
        col_side_.weight = p.alpha();
        col_side_.coupling = lambda_;
        break;
      case TotalsMode::kInterval:
        SEA_INTERNAL_CHECK(false);  // rejected by Validate
        break;
    }
    sweep_opts_.sort_policy = opts.sort_policy;
    sweep_opts_.pool = opts.pool;
    sweep_opts_.record_task_costs = opts.record_trace;
    sweep_opts_.attribution = opts.attribution;
    if (opts.attribution != nullptr) opts.attribution->Reset(p.m(), p.n());
    if (opts.sweep_schedule != ScheduleKind::kStatic) {
      row_scheduler_.emplace(opts.sweep_schedule, opts.sweep_grain);
      col_scheduler_.emplace(opts.sweep_schedule, opts.sweep_grain);
    }
    if (opts.sort_policy == SortPolicy::kReuse) {
      row_orders_.Reset(p.m());
      col_orders_.Reset(p.n());
    }
  }

  SweepStats RowSweep() override {
    if (p_.mode() == TotalsMode::kSam) row_side_.coupling = mu_;
    sweep_opts_.profile_phase = "equilibrate.rows";
    sweep_opts_.scheduler =
        row_scheduler_.has_value() ? &*row_scheduler_ : nullptr;
    sweep_opts_.sort_cache = row_orders_.size() > 0 ? &row_orders_ : nullptr;
    sweep_opts_.attribution_base = 0;  // row markets: slots [0, m)
    return SparseSweep(p_.x0(), p_.gamma(), mu_, row_side_, lambda_, nullptr,
                       sweep_opts_);
  }

  SweepStats ColSweep(bool materialize) override {
    if (p_.mode() == TotalsMode::kSam) col_side_.coupling = lambda_;
    sweep_opts_.profile_phase = "equilibrate.cols";
    sweep_opts_.scheduler =
        col_scheduler_.has_value() ? &*col_scheduler_ : nullptr;
    sweep_opts_.sort_cache = col_orders_.size() > 0 ? &col_orders_ : nullptr;
    sweep_opts_.attribution_base = p_.m();  // column markets: slots [m, m+n)
    return SparseSweep(x0_t_, gamma_t_, lambda_, col_side_, mu_,
                       materialize ? &xt_ : nullptr, sweep_opts_);
  }

  double ResidualMeasure(StopCriterion c) override {
    AccumulateRowSums();
    return MaxRowResidual(c, rowsum_, Targets());
  }

  void AttributeResidual(StopCriterion c, std::size_t iteration,
                         double measure) override {
    AccumulateRowSums();
    const ResidualTargets targets = Targets();
    const std::span<double> out = sweep_opts_.attribution->residual_scratch();
    double l1 = 0.0;
    for (std::size_t i = 0; i < rowsum_.size(); ++i) {
      out[i] = FoldRowResidual(c, rowsum_[i], RowTarget(targets, i), 0.0);
      l1 += out[i];
    }
    sweep_opts_.attribution->CommitCheck(iteration, measure, l1);
  }

  double DiffFromSnapshot() override {
    const auto vals = xt_.Values();
    double measure = 0.0;
    for (std::size_t k = 0; k < vals.size(); ++k)
      measure = std::max(measure, std::abs(vals[k] - xt_prev_[k]));
    return measure;
  }

  void SnapshotIterate() override {
    const auto vals = xt_.Values();
    xt_prev_.assign(vals.begin(), vals.end());
  }

  std::uint64_t CheckCost() const override { return 2 * p_.nnz(); }

  // Breakdown recovery mirrors the dense backend: the pattern primal is
  // recovered from the duals after the run, so they are the whole state.
  void SaveGoodIterate() override {
    lambda_good_ = lambda_;
    mu_good_ = mu_;
  }
  void RestoreGoodIterate() override {
    if (lambda_good_.empty()) {
      std::fill(lambda_.begin(), lambda_.end(), 0.0);
      std::fill(mu_.begin(), mu_.end(), 0.0);
      return;
    }
    lambda_ = lambda_good_;
    mu_ = mu_good_;
  }

  // Durability hooks (core/checkpoint.hpp): duals + the kXChange snapshot
  // (pattern values only — the pattern itself is pinned by the fingerprint)
  // are the whole resumable state.
  bool CaptureIterate(CheckpointState& out) override {
    if (!fingerprint_.has_value()) fingerprint_ = FingerprintProblem(p_);
    out.fingerprint = *fingerprint_;
    out.m = p_.m();
    out.n = p_.n();
    out.lambda = lambda_;
    out.mu = mu_;
    out.have_snapshot = !xt_prev_.empty();
    out.snapshot = xt_prev_;
    return true;
  }

  bool RestoreIterate(const CheckpointState& in) override {
    if (in.lambda.size() != p_.m() || in.mu.size() != p_.n()) return false;
    if (in.have_snapshot && in.snapshot.size() != p_.nnz()) return false;
    lambda_ = in.lambda;
    mu_ = in.mu;
    xt_prev_ = in.have_snapshot ? in.snapshot : std::vector<double>();
    // The restored iterate is the best known point: re-seat the good copies
    // so a later breakdown rolls back here, not to a pre-resume state.
    lambda_good_ = lambda_;
    mu_good_ = mu_;
    return true;
  }

  bool SupportsRecovery() const override { return true; }

  void SnapshotRowDuals(std::vector<double>& out) const override {
    out = lambda_;
  }

  void BlendRowDuals(const std::vector<double>& prev, double keep) override {
    for (std::size_t i = 0; i < lambda_.size(); ++i)
      lambda_[i] = prev[i] + keep * (lambda_[i] - prev[i]);
  }

  // ForceRebalance stays the no-op default: the sparse path has no
  // multiplier-rebalance transform, so the restart rung restores + damps.

 private:
  void AccumulateRowSums() {
    std::fill(rowsum_.begin(), rowsum_.end(), 0.0);
    // xt's rows are the original columns; its column ids are original rows.
    for (std::size_t k = 0; k < xt_.nnz(); ++k)
      rowsum_[xt_.ColIdx()[k]] += xt_.Values()[k];
  }

  ResidualTargets Targets() const {
    ResidualTargets targets;
    targets.mode = p_.mode();
    targets.s0 = p_.s0();
    targets.alpha = p_.alpha();
    targets.lambda = lambda_;
    targets.mu = mu_;
    return targets;
  }

  const SparseDiagonalProblem& p_;
  const SparseMatrix& x0_t_;
  const SparseMatrix& gamma_t_;
  Vector& lambda_;
  Vector& mu_;
  MarketSide row_side_;
  MarketSide col_side_;
  SweepOptions sweep_opts_;
  // Cost feedback + persisted sort orders are per sweep side: the two sides
  // have different market counts and their costs do not transfer.
  std::optional<SweepScheduler> row_scheduler_, col_scheduler_;
  SortOrderCache row_orders_, col_orders_;
  SparseMatrix xt_;
  std::vector<double> xt_prev_;
  Vector rowsum_;
  // Duals at the last finite check (empty until one passes).
  Vector lambda_good_, mu_good_;
  // Problem fingerprint, computed lazily on the first checkpoint capture.
  std::optional<std::uint64_t> fingerprint_;
};

}  // namespace

SparseSea::SparseSea(const SparseDiagonalProblem& problem) {
  problem.Validate();
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
  gamma_t_ = problem.gamma().Transposed();
}

void SparseSea::ResetProblem(const SparseDiagonalProblem& problem) {
  SEA_CHECK(problem.m() == problem_->m() && problem.n() == problem_->n());
  SEA_CHECK(problem.mode() == problem_->mode());
  problem.Validate();
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
  gamma_t_ = problem.gamma().Transposed();
}

SparseSeaRun SparseSea::Solve(const SeaOptions& opts) {
  return SolveWarm(opts, Vector(problem_->n(), 0.0));  // paper Step 0: mu = 0
}

SparseSeaRun SparseSea::SolveWarm(const SeaOptions& opts, const Vector& mu0) {
  const SparseDiagonalProblem& p = *problem_;
  const std::size_t m = p.m(), n = p.n();
  SEA_CHECK(mu0.size() == n);

  const SparseMatrix& x0_t = x0_t_;
  const SparseMatrix& gamma_t = gamma_t_;

  Vector lambda(m, 0.0);
  Vector mu = mu0;
  SparseBackend backend(p, x0_t, gamma_t, opts, lambda, mu);

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
