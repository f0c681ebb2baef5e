// Tests for the sparse subsystem: CSR storage, max-flow pattern feasibility,
// and the sparse SEA solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "core/engine_observer.hpp"
#include "equilibration/equilibrator.hpp"
#include "parallel/parallel_for.hpp"
#include "sparse/feasibility_flow.hpp"
#include "sparse/sparse_sea.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix Fill(std::size_t m, std::size_t n, Rng& rng, double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

// ---------------------------------------------------------------------------
// SparseMatrix.

TEST(SparseMatrix, FromTripletsSumsDuplicates) {
  const auto m = SparseMatrix::FromTriplets(
      2, 3, {{0, 1, 2.0}, {1, 0, 3.0}, {0, 1, 4.0}, {1, 2, -1.0}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_TRUE(m.InPattern(0, 1));
  EXPECT_FALSE(m.InPattern(0, 2));
}

TEST(SparseMatrix, DenseRoundTrip) {
  Rng rng(1);
  DenseMatrix d = Fill(7, 9, rng, -1.0, 1.0);
  for (std::size_t k = 0; k < d.size(); k += 3) d.Flat()[k] = 0.0;
  const auto s = SparseMatrix::FromDense(d);
  EXPECT_LT(s.nnz(), d.size());
  EXPECT_LT(s.ToDense().MaxAbsDiff(d), 1e-15);
}

TEST(SparseMatrix, TransposeRoundTrip) {
  Rng rng(2);
  DenseMatrix d = Fill(6, 11, rng, 0.0, 1.0);
  for (std::size_t k = 0; k < d.size(); k += 2) d.Flat()[k] = 0.0;
  const auto s = SparseMatrix::FromDense(d);
  const auto t = s.Transposed();
  EXPECT_EQ(t.rows(), 11u);
  EXPECT_LT(t.ToDense().MaxAbsDiff(d.Transposed()), 1e-15);
  EXPECT_TRUE(t.Transposed().SamePattern(s));
}

TEST(SparseMatrix, RowColSumsMatchDense) {
  Rng rng(3);
  DenseMatrix d = Fill(5, 8, rng, 0.0, 2.0);
  const auto s = SparseMatrix::FromDense(d, 0.5);
  const auto dd = s.ToDense();
  EXPECT_EQ(s.RowSums(), dd.RowSums());
  EXPECT_EQ(s.ColSums(), dd.ColSums());
}

// ---------------------------------------------------------------------------
// Max flow / pattern feasibility.

TEST(MaxFlow, SimpleDiamond) {
  // s -> a (3), s -> b (2), a -> t (2), b -> t (3), a -> b (10).
  MaxFlow f(4);
  f.AddEdge(0, 1, 3.0);
  f.AddEdge(0, 2, 2.0);
  f.AddEdge(1, 3, 2.0);
  f.AddEdge(2, 3, 3.0);
  f.AddEdge(1, 2, 10.0);
  EXPECT_DOUBLE_EQ(f.Solve(0, 3), 5.0);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow f(4);
  f.AddEdge(0, 1, 5.0);
  f.AddEdge(2, 3, 5.0);
  EXPECT_DOUBLE_EQ(f.Solve(0, 3), 0.0);
}

TEST(PatternFeasibility, FullPatternAlwaysFeasible) {
  Rng rng(4);
  DenseMatrix d = Fill(4, 5, rng, 1.0, 2.0);
  const auto pattern = SparseMatrix::FromDense(d);
  Vector s = d.RowSums(), dd = d.ColSums();
  const auto rep = CheckPatternFeasibility(pattern, s, dd);
  EXPECT_TRUE(rep.feasible);
  EXPECT_NEAR(rep.max_flow, rep.required, 1e-9);
}

TEST(PatternFeasibility, DetectsStructuralZeroBlock) {
  // The Mohr-Crown-Polenske instance: x(1,0) structurally zero, column 0
  // needs 5 but only row 0 (total 2) can feed it.
  const auto pattern = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});
  const auto rep = CheckPatternFeasibility(pattern, {2.0, 5.0}, {5.0, 2.0});
  EXPECT_FALSE(rep.feasible);
  EXPECT_LT(rep.max_flow, rep.required);
  // The Hall violation: column 0's demand (5) exceeds what its only feeder
  // (row 0, total 2) plus slack can provide. The cut must be nontrivial.
  EXPECT_FALSE(rep.deficient_rows.empty() && rep.reachable_cols.empty());
}

TEST(PatternFeasibility, TightDiagonalPattern) {
  // Diagonal-only pattern: feasible iff s == d componentwise.
  const auto pattern = SparseMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}});
  EXPECT_TRUE(CheckPatternFeasibility(pattern, {1, 2, 3}, {1, 2, 3}).feasible);
  EXPECT_FALSE(
      CheckPatternFeasibility(pattern, {2, 1, 3}, {1, 2, 3}).feasible);
}

TEST(PatternFeasibility, RejectsInconsistentTotals) {
  const auto pattern = SparseMatrix::FromTriplets(1, 1, {{0, 0, 1.0}});
  EXPECT_THROW(CheckPatternFeasibility(pattern, {2.0}, {3.0}),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Sparse SEA.

SeaOptions TightOptions() {
  SeaOptions o;
  o.epsilon = 1e-9;
  o.criterion = StopCriterion::kResidualAbs;
  o.max_iterations = 200000;
  return o;
}

TEST(SparseSea, FullPatternMatchesDenseSolver) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    DenseMatrix x0 = Fill(8, 11, rng, 0.1, 20.0);
    DenseMatrix gamma = Fill(8, 11, rng, 0.1, 1.5);
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    const double grow = rng.Uniform(0.9, 1.4);
    for (double& v : s0) v *= grow;
    for (double& v : d0) v *= grow;

    const auto dense = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
    const auto sparse = SparseDiagonalProblem::MakeFixed(
        SparseMatrix::FromDense(x0), SparseMatrix::FromDense(gamma), s0, d0);

    const auto run_d = SolveDiagonal(dense, TightOptions());
    const auto run_s = SolveSparse(sparse, TightOptions());
    ASSERT_TRUE(run_d.result.converged());
    ASSERT_TRUE(run_s.result.converged());
    EXPECT_EQ(run_d.result.iterations, run_s.result.iterations);
    EXPECT_LT(run_s.solution.x.ToDense().MaxAbsDiff(run_d.solution.x), 1e-9);
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_NEAR(run_s.solution.lambda[i], run_d.solution.lambda[i], 1e-12);
  }
}

// Dense and sparse SEA are one solver over two layouts, so on a full
// pattern the two follow the same trajectory to the bit — the sweeps, the
// check measure and the kXChange snapshot — in every regime, serially and
// under a pool; and the checks written once over both layouts (objective,
// feasibility, dual value, KKT) read the same bits from both answers.
class FullPatternTrajectory : public ::testing::TestWithParam<TotalsMode> {};

TEST_P(FullPatternTrajectory, SparseMatchesDenseBitForBit) {
  Rng rng(0xF011);
  const std::size_t k = 10;
  const DenseMatrix x0 = Fill(k, k, rng, 0.1, 20.0);
  const DenseMatrix gamma = Fill(k, k, rng, 0.1, 1.5);
  const SparseMatrix sx0 = SparseMatrix::FromDense(x0);
  const SparseMatrix sgamma = SparseMatrix::FromDense(gamma);
  const Vector rows = x0.RowSums(), cols = x0.ColSums();
  const Vector alpha = rng.UniformVector(k, 0.2, 2.0);
  const Vector beta = rng.UniformVector(k, 0.2, 2.0);
  Vector s0 = rows, d0 = cols;
  for (double& v : s0) v *= 1.2;
  for (double& v : d0) v *= 1.2;
  DiagonalProblem dense;
  SparseDiagonalProblem sparse;
  switch (GetParam()) {
    case TotalsMode::kFixed:
      dense = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
      sparse = SparseDiagonalProblem::MakeFixed(sx0, sgamma, s0, d0);
      break;
    case TotalsMode::kElastic:
      dense = DiagonalProblem::MakeElastic(x0, gamma, s0, alpha, rows, beta);
      sparse = SparseDiagonalProblem::MakeElastic(sx0, sgamma, s0, alpha, rows,
                                                  beta);
      break;
    case TotalsMode::kInterval: {
      // Row centers above their boxes (the upper bounds bind), column
      // centers inside theirs.
      Vector s_lo = rows, s_hi = rows, d_lo = cols, d_hi = cols;
      for (double& v : s_lo) v *= 0.9;
      for (double& v : s_hi) v *= 1.1;
      for (double& v : d_lo) v *= 0.95;
      for (double& v : d_hi) v *= 1.3;
      dense = DiagonalProblem::MakeInterval(x0, gamma, s0, alpha, s_lo, s_hi,
                                            cols, beta, d_lo, d_hi);
      sparse = SparseDiagonalProblem::MakeInterval(
          sx0, sgamma, s0, alpha, s_lo, s_hi, cols, beta, d_lo, d_hi);
      break;
    }
    case TotalsMode::kSam: {
      Vector t0(k);
      for (std::size_t i = 0; i < k; ++i) t0[i] = 0.5 * (rows[i] + cols[i]);
      dense = DiagonalProblem::MakeSam(x0, gamma, t0, alpha);
      sparse = SparseDiagonalProblem::MakeSam(sx0, sgamma, t0, alpha);
      break;
    }
  }

  ThreadPool pool(3);
  for (StopCriterion c :
       {StopCriterion::kResidualRel, StopCriterion::kXChange}) {
    for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SeaOptions o;
      o.epsilon = 1e-9;
      o.criterion = c;
      o.pool = use_pool;
      const auto run_d = SolveDiagonal(dense, o);
      const auto run_s = SolveSparse(sparse, o);
      const std::string tag = std::string(ToString(c)) +
                              (use_pool != nullptr ? " pool" : " serial");
      ASSERT_TRUE(run_d.result.converged()) << tag;
      EXPECT_EQ(run_s.result.status, run_d.result.status) << tag;
      EXPECT_EQ(run_s.result.iterations, run_d.result.iterations) << tag;
      EXPECT_EQ(run_s.result.final_residual, run_d.result.final_residual)
          << tag;
      EXPECT_EQ(run_s.result.ops.flops, run_d.result.ops.flops) << tag;
      EXPECT_EQ(run_s.result.ops.comparisons, run_d.result.ops.comparisons)
          << tag;
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(run_s.solution.lambda[i], run_d.solution.lambda[i]) << tag;
        EXPECT_EQ(run_s.solution.mu[i], run_d.solution.mu[i]) << tag;
      }
      const auto xs = run_s.solution.x.Values();
      const auto xd = run_d.solution.x.Flat();
      ASSERT_EQ(xs.size(), xd.size());
      for (std::size_t e = 0; e < xs.size(); ++e)
        EXPECT_EQ(xs[e], xd[e]) << tag << " e=" << e;
      EXPECT_EQ(run_s.solution.s, run_d.solution.s) << tag;
      EXPECT_EQ(run_s.solution.d, run_d.solution.d) << tag;
      EXPECT_EQ(run_s.result.objective, run_d.result.objective) << tag;
      const FeasibilityReport fs = CheckFeasibility(sparse, run_s.solution);
      const FeasibilityReport fd = CheckFeasibility(dense, run_d.solution);
      EXPECT_EQ(fs.max_row_abs, fd.max_row_abs) << tag;
      EXPECT_EQ(fs.max_row_rel, fd.max_row_rel) << tag;
      EXPECT_EQ(fs.max_col_abs, fd.max_col_abs) << tag;
      EXPECT_EQ(fs.max_col_rel, fd.max_col_rel) << tag;
      EXPECT_EQ(fs.min_x, fd.min_x) << tag;
      EXPECT_EQ(DualValue(sparse, run_s.solution.lambda, run_s.solution.mu),
                DualValue(dense, run_d.solution.lambda, run_d.solution.mu))
          << tag;
      EXPECT_EQ(KktStationarityError(sparse, run_s.solution),
                KktStationarityError(dense, run_d.solution))
          << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, FullPatternTrajectory,
    ::testing::Values(TotalsMode::kFixed, TotalsMode::kElastic,
                      TotalsMode::kSam, TotalsMode::kInterval),
    [](const ::testing::TestParamInfo<TotalsMode>& info) {
      return std::string(ToString(info.param));
    });

SparseDiagonalProblem RandomSparseFixed(std::size_t m, std::size_t n,
                                        double density, Rng& rng) {
  // Build a pattern guaranteed feasible for totals = base sums.
  DenseMatrix x0(m, n, 0.0);
  for (double& v : x0.Flat())
    if (rng.Bernoulli(density)) v = rng.Uniform(0.5, 20.0);
  // Guarantee nonempty rows/columns via a wrap-around diagonal band.
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j : {i % n, (i + 1) % n})
      if (x0(i, j) == 0.0) x0(i, j) = rng.Uniform(0.5, 20.0);
  DenseMatrix gamma(m, n, 0.0);
  for (std::size_t k = 0; k < x0.size(); ++k)
    if (x0.Flat()[k] > 0.0) gamma.Flat()[k] = rng.Uniform(0.1, 2.0);

  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  return SparseDiagonalProblem::MakeFixed(SparseMatrix::FromDense(x0),
                                          SparseMatrix::FromDense(gamma), s0,
                                          d0);
}

TEST(SparseSea, SparsePatternsAreFeasibleAndStationary) {
  Rng rng(6);
  for (double density : {0.16, 0.5}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto p = RandomSparseFixed(15, 18, density, rng);
      ASSERT_TRUE(p.CheckFeasibleTotals().feasible);
      const auto run = SolveSparse(p, TightOptions());
      ASSERT_TRUE(run.result.converged()) << density << " " << trial;
      const auto rep = CheckFeasibility(p, run.solution);
      EXPECT_LT(rep.MaxAbs(), 1e-6);
      EXPECT_GE(rep.min_x, 0.0);
      EXPECT_LT(KktStationarityError(p, run.solution), 1e-6);
    }
  }
}

TEST(SparseSea, ElasticAndSamModes) {
  Rng rng(7);
  {
    DenseMatrix x0 = Fill(10, 10, rng, 0.5, 10.0);
    for (std::size_t k = 0; k < x0.size(); k += 3) x0.Flat()[k] = 0.0;
    for (std::size_t i = 0; i < 10; ++i)
      if (x0(i, i) == 0.0) x0(i, i) = 1.0;
    DenseMatrix gamma = x0;
    for (double& v : gamma.Flat())
      if (v > 0.0) v = rng.Uniform(0.2, 1.0);
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    for (double& v : s0) v *= 1.2;
    const auto p = SparseDiagonalProblem::MakeElastic(
        SparseMatrix::FromDense(x0), SparseMatrix::FromDense(gamma), s0,
        Vector(10, 1.0), d0, Vector(10, 1.0));
    const auto run = SolveSparse(p, TightOptions());
    ASSERT_TRUE(run.result.converged());
    EXPECT_LT(KktStationarityError(p, run.solution), 1e-6);
  }
  {
    DenseMatrix x0 = Fill(12, 12, rng, 0.5, 10.0);
    for (std::size_t k = 1; k < x0.size(); k += 4) x0.Flat()[k] = 0.0;
    for (std::size_t i = 0; i < 12; ++i)
      if (x0(i, i) == 0.0) x0(i, i) = 1.0;
    DenseMatrix gamma = x0;
    for (double& v : gamma.Flat())
      if (v > 0.0) v = rng.Uniform(0.2, 1.0);
    Vector s0(12);
    const Vector rows = x0.RowSums(), cols = x0.ColSums();
    for (std::size_t i = 0; i < 12; ++i) s0[i] = 0.5 * (rows[i] + cols[i]);
    const auto p = SparseDiagonalProblem::MakeSam(
        SparseMatrix::FromDense(x0), SparseMatrix::FromDense(gamma), s0,
        Vector(12, 0.5));
    SeaOptions o = TightOptions();
    o.criterion = StopCriterion::kResidualRel;
    const auto run = SolveSparse(p, o);
    ASSERT_TRUE(run.result.converged());
    EXPECT_LT(KktStationarityError(p, run.solution), 1e-6);
    // Accounts balance.
    const Vector rs = run.solution.x.RowSums();
    const Vector cs = run.solution.x.ColSums();
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_NEAR(rs[i], cs[i], 1e-6 * std::max(1.0, rs[i]));
  }
}

TEST(SparseSea, ParallelMatchesSerial) {
  Rng rng(8);
  const auto p = RandomSparseFixed(30, 25, 0.3, rng);
  const auto serial = SolveSparse(p, TightOptions());

  ThreadPool pool(4);
  SeaOptions par = TightOptions();
  par.pool = &pool;
  const auto parallel = SolveSparse(p, par);
  ASSERT_TRUE(serial.result.converged());
  EXPECT_EQ(serial.result.iterations, parallel.result.iterations);
  const auto dv = serial.solution.x.Values();
  const auto pv = parallel.solution.x.Values();
  for (std::size_t k = 0; k < dv.size(); ++k) EXPECT_EQ(dv[k], pv[k]);
}

TEST(SparseSea, OrderRepairBitIdenticalToColdSweeps) {
  // The sparse solve repairs each gathered market's persisted order sweep
  // after sweep; run the same row/column sweeps with and without order
  // caches, serially and under a pool, and every multiplier and allocation
  // must match bit for bit (ties break by arc index in every sort).
  Rng rng(0x59A2);
  const auto p = RandomSparseFixed(40, 40, 0.25, rng);
  const SparseMatrix x0_t = p.x0().Transposed();
  const SparseMatrix slopes = ArcSlopes(p.gamma());
  const SparseMatrix slopes_t = slopes.Transposed();
  MarketSide rows, cols;
  rows.t0 = p.s0();
  cols.t0 = p.d0();
  const auto same = [](std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  ThreadPool pool(4);
  for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SortOrderCache row_orders, col_orders;
    row_orders.Reset(p.m());
    col_orders.Reset(p.n());
    Vector lambda_cold(p.m(), 0.0), mu_cold(p.n(), 0.0);
    Vector lambda_warm(p.m(), 0.0), mu_warm(p.n(), 0.0);
    SparseMatrix xt_cold = x0_t, xt_warm = x0_t;
    std::vector<SweepSlot> scratch(WorkerCount(use_pool));
    SweepOptions cold, warm;
    cold.pool = warm.pool = use_pool;
    cold.scratch = warm.scratch = scratch;
    std::uint64_t reuses = 0;
    for (int sweep = 0; sweep < 8; ++sweep) {
      EquilibrateSide(p.x0(), slopes, mu_cold, rows, lambda_cold, nullptr,
                      cold);
      warm.sort_cache = &row_orders;
      reuses += EquilibrateSide(p.x0(), slopes, mu_warm, rows, lambda_warm,
                                nullptr, warm)
                    .order_reuses;
      EquilibrateSide(x0_t, slopes_t, lambda_cold, cols, mu_cold, &xt_cold,
                      cold);
      warm.sort_cache = &col_orders;
      reuses += EquilibrateSide(x0_t, slopes_t, lambda_warm, cols, mu_warm,
                                &xt_warm, warm)
                    .order_reuses;
      const std::string tag = std::string(use_pool ? "pool" : "serial") +
                              " sweep=" + std::to_string(sweep);
      ASSERT_TRUE(same(lambda_cold, lambda_warm)) << tag;
      ASSERT_TRUE(same(mu_cold, mu_warm)) << tag;
      ASSERT_TRUE(same(xt_cold.Values(), xt_warm.Values())) << tag;
    }
    EXPECT_EQ(reuses, 7 * (p.m() + p.n()));
  }
}

// kXChange measures come from the column sweep's writeback, which folds
// max |new - old| over the previous check's primal. An EngineObserver
// collects each solve's stream of defined measures.
class MeasureLog : public EngineObserver {
 public:
  void OnCheck(const IterationEvent& ev) override {
    if (ev.measure_defined) checks_.push_back({ev.iteration, ev.measure});
  }
  std::size_t size() const { return checks_.size(); }
  std::uint64_t Hash() const {
    support::Fnv1a hash;
    for (const auto& c : checks_) hash.MixDoubles({&c.second, 1});
    return hash.value();
  }
  // The measures of checks after iteration `t`, in order.
  std::vector<double> After(std::size_t t) const {
    std::vector<double> out;
    for (const auto& c : checks_)
      if (c.first > t) out.push_back(c.second);
    return out;
  }

 private:
  std::vector<std::pair<std::size_t, double>> checks_;
};

// An elastic dense problem and a fixed sparse one, solved under kXChange
// with a check every second iteration.
struct XChangeCase {
  XChangeCase() {
    Rng rng(0xF05E);
    const std::size_t m = 30, n = 25;
    const DenseMatrix x0 = Fill(m, n, rng, 0.1, 20.0);
    const DenseMatrix gamma = Fill(m, n, rng, 0.1, 1.5);
    const Vector alpha = rng.UniformVector(m, 0.2, 2.0);
    const Vector beta = rng.UniformVector(n, 0.2, 2.0);
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    for (double& v : s0) v *= 1.3;
    dense = DiagonalProblem::MakeElastic(x0, gamma, s0, alpha, d0, beta);
    const auto pattern = RandomSparseFixed(40, 40, 0.25, rng);
    Vector rows = pattern.x0().RowSums(), cols = pattern.x0().ColSums();
    for (double& v : rows) v *= 1.3;
    for (double& v : cols) v *= 1.3;
    sparse = SparseDiagonalProblem::MakeFixed(pattern.x0(), pattern.gamma(),
                                              rows, cols);
    options.criterion = StopCriterion::kXChange;
    options.epsilon = 1e-7;
    options.check_every = 2;
  }
  DiagonalProblem dense;
  SparseDiagonalProblem sparse;
  SeaOptions options;
};

// The streams are pinned to the bits the serial snapshot-and-compare pass
// produced, at every thread count. The dense (elastic) stream was re-pinned
// when elastic solves began Anderson-extrapolating their column duals: 165
// checks became 5; the sparse (fixed) stream held.
TEST(FusedCheck, XChangeMeasuresPinned) {
  const XChangeCase c;
  SeaOptions o = c.options;
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    o.pool = &pool;
    MeasureLog dense_log, sparse_log;
    o.observers = {&dense_log};
    ASSERT_TRUE(SolveDiagonal(c.dense, o).result.converged());
    o.observers = {&sparse_log};
    ASSERT_TRUE(SolveSparse(c.sparse, o).result.converged());
    EXPECT_EQ(dense_log.size(), 5u) << threads;
    EXPECT_EQ(dense_log.Hash(), 4864596886868149334ull) << threads;
    EXPECT_EQ(sparse_log.size(), 9u) << threads;
    EXPECT_EQ(sparse_log.Hash(), 10528381119337007278ull) << threads;
  }
}

// The previous check's primal survives a checkpoint: a resumed solve's
// first measure compares against the restored snapshot, so the resumed
// stream is the uninterrupted run's tail, bit for bit.
template <class Problem, class SolveFn>
void ExpectResumedMeasuresContinue(const Problem& p, SeaOptions o,
                                   SolveFn solve, const std::string& tag) {
  MeasureLog full;
  o.observers = {&full};
  const std::size_t iterations = solve(p, o).result.iterations;
  o.observers.clear();

  const std::string path = ::testing::TempDir() + "/fused_" + tag + ".bin";
  std::remove(path.c_str());
  CheckpointWriter writer(path);
  SeaOptions interrupted = o;
  interrupted.checkpoint = &writer;
  interrupted.max_iterations = iterations / 4 * 2;  // a check iteration
  (void)solve(p, interrupted);
  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << tag;
  ASSERT_TRUE(loaded.state.have_snapshot) << tag;

  MeasureLog tail;
  SeaOptions resumed = o;
  resumed.resume = &loaded.state;
  resumed.observers = {&tail};
  (void)solve(p, resumed);
  const auto expect = full.After(interrupted.max_iterations);
  const auto got = tail.After(0);
  ASSERT_FALSE(expect.empty()) << tag;
  ASSERT_EQ(got.size(), expect.size()) << tag;
  EXPECT_EQ(0, std::memcmp(got.data(), expect.data(),
                           got.size() * sizeof(double)))
      << tag;
}

TEST(FusedCheck, ResumedXChangeMeasuresContinueTheStream) {
  const XChangeCase c;
  for (std::size_t threads : {1u, 2u}) {
    ThreadPool pool(threads);
    SeaOptions o = c.options;
    o.pool = &pool;
    const std::string t = std::to_string(threads);
    ExpectResumedMeasuresContinue(
        c.dense, o,
        [](const DiagonalProblem& p, const SeaOptions& opts) {
          return SolveDiagonal(p, opts);
        },
        "dense_t" + t);
    ExpectResumedMeasuresContinue(
        c.sparse, o,
        [](const SparseDiagonalProblem& p, const SeaOptions& opts) {
          return SolveSparse(p, opts);
        },
        "sparse_t" + t);
  }
}

TEST(SparseSea, StructuralZerosStayZero) {
  Rng rng(9);
  const auto p = RandomSparseFixed(10, 10, 0.3, rng);
  const auto run = SolveSparse(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  // Off-pattern cells are simply absent from the estimate.
  EXPECT_TRUE(run.solution.x.SamePattern(p.x0()));
  const auto dense = run.solution.x.ToDense();
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < 10; ++j)
      if (!p.x0().InPattern(i, j)) {
        EXPECT_EQ(dense(i, j), 0.0);
      }
}

TEST(SparseSea, XChangeFirstCheckReportsUndefinedMeasure) {
  // Same engine fix as the dense solver: hitting max_iterations before a
  // second check leaves the x-change measure undefined — no infinity, no
  // phantom comparison flops.
  Rng rng(31);
  const auto p = RandomSparseFixed(12, 14, 0.5, rng);
  SeaOptions o = TightOptions();
  o.criterion = StopCriterion::kXChange;
  o.max_iterations = 1;
  const auto run = SolveSparse(p, o);
  EXPECT_FALSE(run.result.converged());
  EXPECT_EQ(run.result.checks_compared, 0u);
  EXPECT_EQ(run.result.final_residual, 0.0);

  SeaOptions o_res = TightOptions();
  o_res.max_iterations = 1;
  const auto run_res = SolveSparse(p, o_res);
  EXPECT_EQ(run_res.result.checks_compared, 1u);
  EXPECT_EQ(run.result.ops.flops + 2u * p.nnz(), run_res.result.ops.flops);
}

TEST(SparseSea, WorkScalesWithNnz) {
  // Op counts for one iteration should be near-proportional to nnz at fixed
  // dimensions.
  Rng rng(10);
  auto ops_at = [&rng](double density) {
    const auto p = RandomSparseFixed(60, 60, density, rng);
    SeaOptions o = TightOptions();
    o.max_iterations = 1;
    const auto run = SolveSparse(p, o);
    return std::pair<double, double>(double(p.nnz()),
                                     run.result.ops.Work());
  };
  const auto [nnz_lo, work_lo] = ops_at(0.15);
  const auto [nnz_hi, work_hi] = ops_at(0.9);
  const double work_ratio = work_hi / work_lo;
  const double nnz_ratio = nnz_hi / nnz_lo;
  EXPECT_GT(work_ratio, 0.5 * nnz_ratio);
  EXPECT_LT(work_ratio, 2.5 * nnz_ratio);
}

}  // namespace
}  // namespace sea
