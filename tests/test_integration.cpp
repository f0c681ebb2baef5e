// Cross-module integration tests: whole pipelines (dataset generation ->
// solve -> verification) and cross-algorithm agreement on shared instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/bachem_korte.hpp"
#include "baselines/ras.hpp"
#include "baselines/rc_algorithm.hpp"
#include "baselines/reference_solvers.hpp"
#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "core/general_sea.hpp"
#include "datasets/general_dense.hpp"
#include "datasets/io_tables.hpp"
#include "datasets/large_diagonal.hpp"
#include "datasets/migration.hpp"
#include "datasets/sam_datasets.hpp"
#include "datasets/weights.hpp"
#include "equilibration/breakpoint_solver.hpp"
#include "obs/market_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/status_file.hpp"
#include "obs/trace_sink.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/feasibility.hpp"
#include "problems/solution.hpp"
#include "sparse/sparse_sea.hpp"
#include "spe/spe_generator.hpp"
#include "support/failpoint.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

// Pinned numerics: the FNV-1a of the primal and the multipliers of one
// dense fixed, one dense elastic, one sparse and one box-constrained market
// solve, under default options apart from a tight epsilon (the three
// matrix solves also on 2- and 4-thread pools). The hex values
// were recorded before the market kernel was consolidated into one
// implementation; any change to the kernel's arithmetic (operation order,
// FMA contraction, tie breaking, prefix-sum order) moves them. Recorded on
// x86-64, whose baseline instruction set has no FMA to fuse into. The
// elastic value was re-pinned once, when elastic solves began
// Anderson-extrapolating their column duals (102 -> 39 iterations; every
// x, lambda and mu value moved by at most 1.5e-5, inside the plain stop
// point's 5.8e-6 distance from the tight optimum for x), and again when the
// extrapolation safeguard began reading zeta from the sweeps' market
// shares (39 -> 41 iterations, 2 -> 4 extrapolations rejected: from the
// 34th decision on, the zetas compared lie within 3e-8 of each other, the
// rounding of either evaluation; x, lambda and mu moved by at most 2.6e-6,
// 6.5e-6 and 5.9e-6). The other three held both times.
std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string HashDense(const DiagonalSeaRun& run) {
  support::Fnv1a h;
  h.MixDoubles(run.solution.x.Flat());
  h.MixDoubles(run.solution.lambda);
  h.MixDoubles(run.solution.mu);
  h.MixU64(run.result.iterations);
  return Hex(h.value());
}

TEST(Integration, PinnedKernelBits) {
  Rng rng(0x5EA6);
  const std::size_t m = 23, n = 17;
  DenseMatrix x0(m, n), gamma(m, n);
  for (double& v : x0.Flat()) v = rng.Uniform(0.0, 100.0);
  for (double& v : gamma.Flat()) v = rng.Uniform(1e-2, 1e2);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.3;
  for (double& v : d0) v *= 1.3;

  const auto fixed_p = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
  const auto elastic_p = DiagonalProblem::MakeElastic(
      x0, gamma, s0, rng.UniformVector(m, 0.1, 5.0), d0,
      rng.UniformVector(n, 0.1, 5.0));

  const std::size_t k = 40;
  DenseMatrix sx0(k, k, 0.0), sgamma(k, k, 0.0);
  for (double& v : sx0.Flat())
    if (rng.Bernoulli(0.25)) v = rng.Uniform(0.1, 100.0);
  for (std::size_t i = 0; i < k; ++i)
    if (sx0(i, i) == 0.0) sx0(i, i) = 1.0;
  for (std::size_t e = 0; e < sx0.size(); ++e)
    if (sx0.Flat()[e] > 0.0) sgamma.Flat()[e] = 1.0 / sx0.Flat()[e];
  const auto sparse_p = SparseDiagonalProblem::MakeFixed(
      SparseMatrix::FromDense(sx0), SparseMatrix::FromDense(sgamma),
      sx0.RowSums(), sx0.ColSums());

  // The same bits serially and on 2- and 4-thread pools: the pool's claimed
  // chunks decide only which worker solves a market.
  ThreadPool pool2(2), pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
    SCOPED_TRACE(pool != nullptr ? pool->num_threads() : 1);
    SeaOptions o;
    o.epsilon = 1e-8;
    o.pool = pool;

    const auto fixed = SolveDiagonal(fixed_p, o);
    ASSERT_TRUE(fixed.result.converged());
    EXPECT_EQ(HashDense(fixed), "7440eba5e850937f");

    const auto elastic = SolveDiagonal(elastic_p, o);
    ASSERT_TRUE(elastic.result.converged());
    EXPECT_EQ(HashDense(elastic), "25fdd3421322efc2");

    const auto sparse = SolveSparse(sparse_p, o);
    ASSERT_TRUE(sparse.result.converged());
    support::Fnv1a h;
    h.MixDoubles(sparse.solution.x.Values());
    h.MixDoubles(sparse.solution.lambda);
    h.MixDoubles(sparse.solution.mu);
    h.MixU64(sparse.result.iterations);
    EXPECT_EQ(Hex(h.value()), "8e030146a9f233b3");
  }

  // Box-constrained markets with duplicated arcs, so breakpoint ties are
  // broken by arc index.
  support::Fnv1a h;
  BreakpointWorkspace ws;
  for (std::size_t k : {1u, 2u, 6u, 17u, 120u, 300u}) {
    std::vector<Arc> arcs(k);
    for (auto& a : arcs)
      a = {rng.Uniform(-100.0, 100.0), rng.Uniform(0.01, 5.0)};
    for (std::size_t j = 3; j + 1 < k; j += 4) arcs[j + 1] = arcs[j];
    const double u = rng.Uniform(-5.0, 2.0 * double(k));
    const double lo = rng.Uniform(0.0, 0.5 * double(k));
    const double hi = lo + rng.Uniform(0.0, double(k));
    ws.Assign(arcs);
    const auto r = SolveMarketBox(ws, u, -1.0, lo, hi);
    std::vector<double> x(k);
    for (std::size_t j = 0; j < k; ++j)
      x[j] = std::max(0.0, arcs[j].p + arcs[j].q * r.lambda);
    h.MixDoubles(x);
    h.MixBytes(&r.lambda, sizeof(r.lambda));
    h.MixU64(r.active_count);
  }
  EXPECT_EQ(Hex(h.value()), "e63acf2c0320b128");
}

// Pinned numerics of the long-market sort path: markets above
// kInsertionThreshold arcs. A dense chi-square solve (gamma = 1/x0): its
// first row sweep clears against mu = 0, where every row breakpoint ties at
// -2 up to rounding, so it repairs orders seeded from the offsets, and the
// first two column sweeps and the second row sweep repair orders seeded
// from one shared multiplier order; no repair hands over. Plus a sparse
// solve whose rows and columns hold ~180 arcs, which every first sweep
// cold-sorts with the long-market sort. Recorded while heapsort was the
// long-market sort and before the seeding; a sort or seed that yields the
// same total order (KeyLess) leaves them untouched.
TEST(Integration, PinnedWideKernelBits) {
  Rng rng(0x51DE);
  const std::size_t m = 140, n = 205;
  DenseMatrix x0(m, n);
  for (double& v : x0.Flat()) v = rng.Uniform(1.0, 100.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (std::size_t i = 0; i < m; ++i) s0[i] *= rng.Uniform(0.9, 1.1);
  double s_total = 0.0, d_total = 0.0;
  for (double v : s0) s_total += v;
  for (double v : d0) d_total += v;
  for (double& v : d0) v *= s_total / d_total;
  const auto dense_p = DiagonalProblem::MakeFixed(
      x0, datasets::ChiSquareWeights(x0), s0, d0);

  const std::size_t k = 300;
  DenseMatrix sx0(k, k, 0.0), sgamma(k, k, 0.0);
  for (double& v : sx0.Flat())
    if (rng.Bernoulli(0.6)) v = rng.Uniform(0.1, 100.0);
  for (std::size_t i = 0; i < k; ++i)
    if (sx0(i, i) == 0.0) sx0(i, i) = 1.0;
  for (std::size_t e = 0; e < sx0.size(); ++e)
    if (sx0.Flat()[e] > 0.0) sgamma.Flat()[e] = 1.0 / sx0.Flat()[e];
  Vector ss0 = sx0.RowSums(), sd0 = sx0.ColSums();
  for (double& v : ss0) v *= 1.2;
  for (double& v : sd0) v *= 1.2;
  const auto sparse_p = SparseDiagonalProblem::MakeFixed(
      SparseMatrix::FromDense(sx0), SparseMatrix::FromDense(sgamma), ss0,
      sd0);

  ThreadPool pool2(2), pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
    SCOPED_TRACE(pool != nullptr ? pool->num_threads() : 1);
    SeaOptions o;
    o.epsilon = 1e-8;
    o.pool = pool;

    const auto dense = SolveDiagonal(dense_p, o);
    ASSERT_TRUE(dense.result.converged());
    // No market cold-sorts: every solve completes a repair.
    EXPECT_EQ(dense.result.order_reuses, dense.result.kernel_markets);
    EXPECT_EQ(HashDense(dense), "16062d47bbfdfa6f");

    const auto sparse = SolveSparse(sparse_p, o);
    ASSERT_TRUE(sparse.result.converged());
    support::Fnv1a h;
    h.MixDoubles(sparse.solution.x.Values());
    h.MixDoubles(sparse.solution.lambda);
    h.MixDoubles(sparse.solution.mu);
    h.MixU64(sparse.result.iterations);
    EXPECT_EQ(Hex(h.value()), "fd817583cf135f76");
  }
}

// Pinned SP120 trajectory under the Table 5 protocol (kXChange, eps 0.01,
// checked every other iteration): the iteration count and the FNV-1a of x,
// lambda and mu, serially and on a 2-thread pool. perfbench's
// core.iterations is a mean over however many solves fit its window; this
// pins one solve exactly. Recorded before the market kernel took its arc
// slopes per solve; re-pinned when elastic solves began Anderson-
// extrapolating their column duals (492 -> 16 iterations;
// ElasticStopPointsNoWorseThanPlainSea holds the new stop point to the old
// one's optimality).
TEST(Integration, PinnedSp120Trajectory) {
  Rng rng(120);
  const auto diag = spe::Generate(120, 120, rng).ToDiagonalProblem();
  ThreadPool pool2(2);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2}) {
    SCOPED_TRACE(pool != nullptr ? pool->num_threads() : 1);
    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;
    o.check_every = 2;
    o.pool = pool;
    const auto run = SolveDiagonal(diag, o);
    ASSERT_TRUE(run.result.converged());
    EXPECT_EQ(run.result.iterations, 16u);
    EXPECT_EQ(HashDense(run), "01691c40a40085af");
  }
}

// The elastic stop points judged by optimality rather than by their own
// stopping rule. The constants were measured with plain SEA, before the
// Anderson extrapolation (core/extrapolation.hpp) moved the elastic pins:
// for SP120 under the Table 5 protocol and for PinnedKernelBits' elastic
// problem, the stop point's max |x - x_tight| (x_tight: the same problem
// solved to kResidualRel 1e-12), its KktStationarityError and its duality
// gap, objective - zeta. The extrapolated stop points must be no worse,
// with the same bits at 1, 2 and 4 threads. A point recovered in closed
// form from its duals is stationary up to rounding, about one ulp of the
// largest 2 gamma x0 term for both solvers, so its KKT error is held to
// twice the plain solver's rather than below it.
struct PlainSeaStopPoint {
  double max_x_error;
  double kkt;
  double gap;
};

void ExpectNoWorseThanPlainSea(const DiagonalProblem& p, const SeaOptions& o,
                               const PlainSeaStopPoint& plain) {
  SeaOptions tight;
  tight.epsilon = 1e-12;
  tight.criterion = StopCriterion::kResidualRel;
  tight.stall_checks = 0;
  const auto ref = SolveDiagonal(p, tight);
  ASSERT_TRUE(ref.result.converged());

  const auto serial = SolveDiagonal(p, o);
  ASSERT_TRUE(serial.result.converged());
  EXPECT_LE(serial.solution.x.MaxAbsDiff(ref.solution.x), plain.max_x_error);
  EXPECT_LE(KktStationarityError(p, serial.solution), 2.0 * plain.kkt);
  EXPECT_LE(std::abs(serial.result.objective -
                     DualValue(p, serial.solution.lambda, serial.solution.mu)),
            std::abs(plain.gap));

  ThreadPool pool2(2), pool4(4);
  for (ThreadPool* pool : {&pool2, &pool4}) {
    SCOPED_TRACE(pool->num_threads());
    SeaOptions po = o;
    po.pool = pool;
    EXPECT_EQ(HashDense(SolveDiagonal(p, po)), HashDense(serial));
  }
}

TEST(Integration, ElasticStopPointsNoWorseThanPlainSea) {
  {
    SCOPED_TRACE("SP120");
    Rng rng(120);
    const auto diag = spe::Generate(120, 120, rng).ToDiagonalProblem();
    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;
    o.check_every = 2;
    ExpectNoWorseThanPlainSea(
        diag, o, {0.50095999566093496, 2.8421709430404007e-14,
                  -33075.491333227605});
  }
  {
    SCOPED_TRACE("PinnedKernelBits elastic");
    Rng rng(0x5EA6);
    const std::size_t m = 23, n = 17;
    DenseMatrix x0(m, n), gamma(m, n);
    for (double& v : x0.Flat()) v = rng.Uniform(0.0, 100.0);
    for (double& v : gamma.Flat()) v = rng.Uniform(1e-2, 1e2);
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    for (double& v : s0) v *= 1.3;
    for (double& v : d0) v *= 1.3;
    const auto elastic_p = DiagonalProblem::MakeElastic(
        x0, gamma, s0, rng.UniformVector(m, 0.1, 5.0), d0,
        rng.UniformVector(n, 0.1, 5.0));
    SeaOptions o;
    o.epsilon = 1e-8;
    ExpectNoWorseThanPlainSea(
        elastic_p, o, {5.7779299140747753e-06, 1.2789769243681803e-12,
                       -0.0010341713204979897});
  }
}

// The safeguard on SP120: every recorded zeta is at least its predecessor,
// some extrapolated steps are refused, and each iteration extrapolates at
// most once. The Table 5 protocol stops (16 iterations) before any step is
// refused, so the solve runs on to kResidualRel 1e-10, where the window
// starts proposing points past the optimum. zeta (~2.6e7) is a sum of
// 14400 arc terms: once it has converged, its rounding moves it both ways
// by a few ulps from sweep to sweep — plain SEA on this instance falls 477
// times over its 2463 iterations to 1e-10, by up to 1.0e-7 — so a fall is
// allowed 1e-14 |zeta| (~45 ulps) and nothing more.
TEST(Integration, Sp120SafeguardKeepsZetaMonotone) {
  Rng rng(120);
  const auto diag = spe::Generate(120, 120, rng).ToDiagonalProblem();
  SeaOptions o;
  o.epsilon = 1e-10;
  o.criterion = StopCriterion::kResidualRel;
  o.record_dual_values = true;
  const auto run = SolveDiagonal(diag, o);
  ASSERT_TRUE(run.result.converged());
  const auto& zeta = run.result.dual_values;
  ASSERT_EQ(zeta.size(), run.result.iterations);
  for (std::size_t t = 1; t < zeta.size(); ++t)
    EXPECT_GE(zeta[t], zeta[t - 1] - 1e-14 * std::abs(zeta[t - 1]))
        << "iteration " << t + 1;
  EXPECT_GE(run.result.extrapolations_rejected, 1u);
  EXPECT_LE(run.result.extrapolations_accepted +
                run.result.extrapolations_rejected,
            run.result.iterations);
}

// One order per sweep (docs/KERNELS.md): under chi-square weights a side's
// first sweep against nonzero crossing multipliers seeds every market's
// order from one shared multiplier order. A seed is only a hint that the
// repair completes into the KeyLess order, so the bits, pinned before the
// seeding, stay; only the sort-work counters move. OpCounts are pinned as
// an FNV-1a of (comparisons, flops, breakpoints, inversions, order_reuses):
// the seeded solves' as the seeding left them, the unseedable ones' as they
// were before it. Re-pinned once, for the two cold starts below, when the
// zero sweep began seeding from the offsets and the column side began
// reseeding once: comparisons, inversions and order_reuses moved, flops and
// breakpoints did not (the warm start's and the unseedable pins held).
std::string HashOps(const SeaResult& r) {
  support::Fnv1a h;
  h.MixU64(r.ops.comparisons);
  h.MixU64(r.ops.flops);
  h.MixU64(r.ops.breakpoints);
  h.MixU64(r.ops.inversions);
  h.MixU64(r.order_reuses);
  return Hex(h.value());
}

// Chi-square weights on a table with ~45% structural zeros: offsets c/q of
// 2 on the support and 0 on a zero, so every market holds two classes.
// Totals grow unevenly, so the solve takes several sweeps.
DiagonalProblem TwoClassChiSquare(Rng& rng, std::size_t m, std::size_t n) {
  DenseMatrix x0(m, n, 0.0);
  for (double& v : x0.Flat())
    if (rng.Bernoulli(0.55)) v = rng.Uniform(1.0, 100.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= rng.Uniform(1.0, 1.3);
  for (double& v : d0) v *= rng.Uniform(1.0, 1.3);
  double s_total = 0.0, d_total = 0.0;
  for (double v : s0) s_total += v;
  for (double v : d0) d_total += v;
  for (double& v : d0) v *= s_total / d_total;
  return DiagonalProblem::MakeFixed(x0, datasets::ChiSquareWeights(x0), s0,
                                    d0);
}

TEST(Integration, SeededDenseTwoClassSolve) {
  Rng rng(0x5EED);
  const std::size_t m = 60, n = 170;  // rows above kInsertionThreshold
  const auto p = TwoClassChiSquare(rng, m, n);
  SeaOptions o;
  o.epsilon = 1e-8;
  ThreadPool pool2(2), pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
    SCOPED_TRACE(pool != nullptr ? pool->num_threads() : 1);
    o.pool = pool;
    const auto run = SolveDiagonal(p, o);
    ASSERT_TRUE(run.result.converged());
    EXPECT_EQ(HashDense(run), "bbd77905eb6c000e");
    // No market cold-sorts, the first row sweep's (against mu = 0)
    // included.
    EXPECT_EQ(run.result.order_reuses, run.result.kernel_markets);
    // The same op totals on every pool.
    EXPECT_EQ(HashOps(run.result), "fa475962a45bbeed");
  }
}

TEST(Integration, SeededSparseOneClassSolve) {
  // Chi-square weights on the pattern alone: one offset class per market.
  Rng rng(0x5EEE);
  const std::size_t k = 220;
  DenseMatrix x0(k, k, 0.0), gamma(k, k, 0.0);
  for (std::size_t e = 0; e < x0.size(); ++e)
    if (rng.Bernoulli(0.35)) {
      x0.Flat()[e] = rng.Uniform(0.5, 80.0);
      gamma.Flat()[e] = 1.0 / x0.Flat()[e];
    }
  for (std::size_t i = 0; i < k; ++i)
    if (x0(i, i) == 0.0) {
      x0(i, i) = 1.0;
      gamma(i, i) = 1.0;
    }
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= rng.Uniform(1.0, 1.2);
  double s_total = 0.0, d_total = 0.0;
  for (double v : s0) s_total += v;
  for (double v : d0) d_total += v;
  for (double& v : d0) v *= s_total / d_total;
  const auto p = SparseDiagonalProblem::MakeFixed(
      SparseMatrix::FromDense(x0), SparseMatrix::FromDense(gamma), s0, d0);
  SeaOptions o;
  o.epsilon = 1e-8;
  ThreadPool pool2(2), pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
    SCOPED_TRACE(pool != nullptr ? pool->num_threads() : 1);
    o.pool = pool;
    const auto run = SolveSparse(p, o);
    ASSERT_TRUE(run.result.converged());
    support::Fnv1a h;
    h.MixDoubles(run.solution.x.Values());
    h.MixDoubles(run.solution.lambda);
    h.MixDoubles(run.solution.mu);
    h.MixU64(run.result.iterations);
    EXPECT_EQ(Hex(h.value()), "7bd6b23654875e22");
    EXPECT_EQ(run.result.order_reuses, run.result.kernel_markets);
    EXPECT_EQ(HashOps(run.result), "25aec97515b1cf64");
  }
}

TEST(Integration, SeededWarmStartSeedsTheFirstRowSweep) {
  // A warm start from nonzero mu0 (the optimum of a nearby problem): the
  // first row sweep already clears against informative multipliers, so it
  // is seeded and every market solve of the run completes a repair.
  Rng rng(0x5EEF);
  const std::size_t m = 50, n = 160;
  const auto p = TwoClassChiSquare(rng, m, n);
  SeaOptions o;
  o.epsilon = 1e-8;
  const auto base = SolveDiagonal(p, o);
  ASSERT_TRUE(base.result.converged());
  Vector s0 = p.s0(), d0 = p.d0();
  for (double& v : s0) v *= rng.Uniform(1.0, 1.01);
  double s_total = 0.0, d_total = 0.0;
  for (double v : s0) s_total += v;
  for (double v : d0) d_total += v;
  for (double& v : d0) v *= s_total / d_total;
  const auto nearby = DiagonalProblem::MakeFixed(p.x0(), p.gamma(), s0, d0);
  DiagonalSea solver(nearby);
  const auto run = solver.SolveWarm(o, base.solution.mu);
  ASSERT_TRUE(run.result.converged());
  EXPECT_EQ(HashDense(run), "00623a663697bbcf");
  EXPECT_EQ(run.result.order_reuses, run.result.kernel_markets);
  EXPECT_EQ(HashOps(run.result), "49e0a4ea93ff1d0f");
}

TEST(Integration, UnseedableMarketsKeepTheirOpCounts) {
  // Five offset classes per market (x0 constant, gamma from five values) and
  // random weights: neither is seedable, so the op counts, recorded before
  // the seeding, stay.
  Rng rng(0x5EF0);
  const std::size_t m = 40, n = 150;
  DenseMatrix x0(m, n, 10.0), five(m, n), random(m, n);
  for (double& v : five.Flat()) v = 0.5 * double(1 + rng.NextIndex(5));
  for (double& v : random.Flat()) v = rng.Uniform(0.05, 2.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= rng.Uniform(1.0, 1.3);
  double s_total = 0.0, d_total = 0.0;
  for (double v : s0) s_total += v;
  for (double v : d0) d_total += v;
  for (double& v : d0) v *= s_total / d_total;
  SeaOptions o;
  o.epsilon = 1e-8;
  const auto run5 =
      SolveDiagonal(DiagonalProblem::MakeFixed(x0, five, s0, d0), o);
  ASSERT_TRUE(run5.result.converged());
  EXPECT_EQ(HashDense(run5), "4876fe97f312b6a2");
  EXPECT_EQ(HashOps(run5.result), "2c29c45590c6b1cd");
  const auto runr =
      SolveDiagonal(DiagonalProblem::MakeFixed(x0, random, s0, d0), o);
  ASSERT_TRUE(runr.result.converged());
  EXPECT_EQ(HashDense(runr), "663c83beddbd5e91");
  EXPECT_EQ(HashOps(runr.result), "24b3248a1e29825b");
}

// Pinned observer outputs: the FNV-1a of what the telemetry observers emit
// over three solves, with wall-clock fields masked. Hashed per solve: the
// JSONL trace lines, the postmortem events (kind, iteration, value), the
// final status snapshot, and the metrics counters plus histogram bucket
// counts. Recorded before the observers were folded into one event stream;
// rewiring how the engine feeds them must not move it. Re-pinned once when
// every sweep began repairing persisted breakpoint orders: only the
// sort-work fields moved (sea.ops.comparisons, sea.ops.inversions,
// sea.sweep.order_reuses and the trace's comparisons_delta/_total). Re-pinned
// again for telemetry schema 5: the same tree at schema 4 still hashed
// d7762ac0da9b42b0, so only the "schema" stamp moved. Re-pinned for schema
// 6, when the flight recorder folded into the trace sink: a line-by-line
// diff of the hashed strings showed the check, outer and status lines
// unchanged but for "schema":6, the trace gaining exactly the postmortem's
// begin/stall/recovery/termination event lines (same bytes, engine order),
// the postmortem losing only its kind:"check" events (whose iter and value
// equal the trace's check lines), and every metric unchanged.
std::string MaskTiming(const std::string& json) {
  static const std::set<std::string> kTiming = {
      "row_seconds",       "col_seconds",       "check_seconds",
      "linearize_seconds", "t",                 "elapsed_seconds",
      "eta_seconds",       "row_phase_seconds", "col_phase_seconds",
      "check_phase_seconds"};
  std::string out;
  std::size_t i = 0;
  for (std::size_t colon; (colon = json.find("\":", i)) != std::string::npos;) {
    const std::size_t open = json.rfind('"', colon - 1);
    out.append(json, i, colon + 2 - i);
    i = colon + 2;
    if (kTiming.count(json.substr(open + 1, colon - open - 1)) > 0) {
      out += 'T';
      i = std::min(json.find_first_of(",}", i), json.size());
    }
  }
  return out.append(json, i, std::string::npos);
}

class PinnedObservers {
 public:
  PinnedObservers(SeaOptions& o, const std::string& tag)
      : trace_path_(::testing::TempDir() + "/pinned_" + tag + ".jsonl"),
        postmortem_path_(::testing::TempDir() + "/pinned_" + tag + "_pm"),
        trace_(std::make_unique<obs::JsonlTraceSink>(trace_path_)),
        status_("", o.epsilon) {
    o.observers = {trace_.get(), &metrics_observer_, &status_};
  }

  void Mix(support::Fnv1a& h) {
    const auto mix = [&h](const std::string& s) {
      h.MixU64(s.size());
      h.MixBytes(s.data(), s.size());
    };
    ASSERT_TRUE(trace_->WritePostmortem(postmortem_path_));
    trace_.reset();  // flush and close
    std::ifstream trace(trace_path_);
    for (std::string line; std::getline(trace, line);) mix(MaskTiming(line));
    std::ifstream pm(postmortem_path_);
    for (std::string line; std::getline(pm, line);)
      if (line.find("\"type\":\"event\"") != std::string::npos)
        mix(MaskTiming(line));
    mix(MaskTiming(status_.LatestJson()));
    const obs::MetricsSnapshot snap = metrics_.Snapshot();
    for (const auto& [name, value] : snap.counters) {
      mix(name);
      h.MixU64(value);
    }
    for (const auto& [name, hist] : snap.histograms) {
      mix(name);
      for (std::uint64_t c : hist.counts) h.MixU64(c);
    }
  }

 private:
  std::string trace_path_;
  std::string postmortem_path_;
  std::unique_ptr<obs::JsonlTraceSink> trace_;
  obs::MetricsRegistry metrics_;
  obs::MetricsObserver metrics_observer_{metrics_};
  obs::StatusFileWriter status_;
};

TEST(Integration, PinnedObserverOutputs) {
  support::Fnv1a h;
  Rng rng(0x0B5E);

  {  // Converged dense solve with per-market attribution.
    const std::size_t m = 9, n = 7;
    DenseMatrix x0(m, n), gamma(m, n);
    for (double& v : x0.Flat()) v = rng.Uniform(1.0, 50.0);
    for (double& v : gamma.Flat()) v = rng.Uniform(0.1, 10.0);
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    for (double& v : s0) v *= 1.2;
    for (double& v : d0) v *= 1.2;
    SeaOptions o;
    o.epsilon = 1e-9;
    o.check_every = 2;
    obs::MarketAttribution attribution;
    o.attribution = &attribution;
    PinnedObservers observers(o, "dense");
    const auto run =
        SolveDiagonal(DiagonalProblem::MakeFixed(x0, gamma, s0, d0), o);
    ASSERT_TRUE(run.result.converged());
    observers.Mix(h);
  }

  {  // A stall the recovery ladder cannot rescue, checkpointing as it goes.
    DenseMatrix x0(3, 3), gamma(3, 3);
    double v = 1.0;
    for (double& c : x0.Flat()) c = v++;
    v = 0.0;
    for (double& c : gamma.Flat()) {
      c = 0.5 + 0.37 * (v * (v + 1.0) / 9.0);
      v += 1.0;
    }
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    for (double& t : s0) t *= 1.3;
    for (double& t : d0) t *= 1.3;
    SeaOptions o;
    o.epsilon = 1e-300;
    o.criterion = StopCriterion::kResidualAbs;
    o.recover = true;
    o.stall_checks = 1;
    o.recovery_retries = 1;
    const std::string ck_path = ::testing::TempDir() + "/pinned_stall.ck";
    std::remove(ck_path.c_str());
    CheckpointWriter checkpoint(ck_path);
    o.checkpoint = &checkpoint;
    PinnedObservers observers(o, "stall");
    fail::Arm("sea.engine.freeze_measure", 2);
    const auto run =
        SolveDiagonal(DiagonalProblem::MakeFixed(x0, gamma, s0, d0), o);
    fail::DisarmAll();
    ASSERT_EQ(run.result.status, SolveStatus::kStalled);
    ASSERT_EQ(run.result.recovered_count, 3u);
    observers.Mix(h);
  }

  {  // General SEA: inner checks plus one outer event per projection step.
    const auto p = datasets::MakeGeneralDense(4, 4, rng);
    GeneralSeaOptions o;
    o.outer_epsilon = 1e-6;
    PinnedObservers observers(o.inner, "general");
    ASSERT_TRUE(SolveGeneral(p, o).result.converged());
    observers.Mix(h);
  }

  EXPECT_EQ(Hex(h.value()), "d871c398534f76c9");
}

TEST(Integration, ThreeAlgorithmsAgreeOnGeneralProblem) {
  // SEA, RC and B-K on the same Table 7-protocol instance must find the
  // same optimum (same objective value, same solution up to tolerance).
  Rng rng(1);
  const auto p = datasets::MakeGeneralDense(5, 5, rng);

  GeneralSeaOptions sea_opts;
  sea_opts.outer_epsilon = 1e-7;
  const auto sea_run = SolveGeneral(p, sea_opts);

  RcOptions rc_opts;
  rc_opts.epsilon = 1e-7;
  rc_opts.max_outer_iterations = 5000;
  const auto rc_run = SolveRc(p, rc_opts);

  BachemKorteOptions bk_opts;
  bk_opts.epsilon = 1e-7;
  bk_opts.max_sweeps = 200000;
  const auto bk_run = SolveBachemKorte(p, bk_opts);

  ASSERT_TRUE(sea_run.result.converged());
  ASSERT_TRUE(rc_run.result.converged);
  ASSERT_TRUE(bk_run.result.converged);

  const double scale = std::max(1.0, std::abs(sea_run.result.objective));
  EXPECT_NEAR(rc_run.result.objective, sea_run.result.objective,
              1e-3 * scale);
  EXPECT_NEAR(bk_run.result.objective, sea_run.result.objective,
              1e-3 * scale);
}

TEST(Integration, Table1PipelineSmall) {
  // Scaled-down Table 1 instance end to end, serial vs parallel.
  Rng rng(2);
  const auto p = datasets::MakeLargeDiagonal(60, 60, rng);
  SeaOptions o;
  o.epsilon = 0.01;
  o.criterion = StopCriterion::kXChange;
  const auto serial = SolveDiagonal(p, o);
  ASSERT_TRUE(serial.result.converged());

  ThreadPool pool(4);
  SeaOptions op = o;
  op.pool = &pool;
  const auto parallel = SolveDiagonal(p, op);
  EXPECT_DOUBLE_EQ(serial.solution.x.MaxAbsDiff(parallel.solution.x), 0.0);

  const auto rep = CheckFeasibility(p, serial.solution);
  EXPECT_LT(rep.MaxRel(), 1e-2);
}

TEST(Integration, Table2PipelineSmall) {
  datasets::IoTableSpec spec;
  spec.name = "mini-io";
  spec.size = 40;
  spec.density = 0.5;
  spec.protocol = 'a';
  spec.growth_hi = 0.10;
  const auto p = datasets::MakeIoTable(spec, 0);
  SeaOptions o;
  o.epsilon = 1e-6;
  o.criterion = StopCriterion::kResidualRel;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  EXPECT_LT(KktStationarityError(p, run.solution), 1e-4);
  // Updated table respects structural support economics: entries stay
  // nonnegative and table totals hit the grown margins.
  EXPECT_GE(CheckFeasibility(p, run.solution).min_x, 0.0);
}

TEST(Integration, Table3PipelineSmall) {
  datasets::SamSpec spec;
  spec.name = "mini-sam";
  spec.accounts = 30;
  spec.transactions = 0;
  const auto p = datasets::MakeSam(spec);
  SeaOptions o;
  o.epsilon = 1e-3;
  o.criterion = StopCriterion::kResidualRel;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  // Balanced accounts at the solution.
  for (std::size_t i = 0; i < 30; ++i) {
    double rs = 0.0, cs = 0.0;
    for (std::size_t j = 0; j < 30; ++j) {
      rs += run.solution.x(i, j);
      cs += run.solution.x(j, i);
    }
    EXPECT_NEAR(rs, cs, 2e-3 * std::max(1.0, rs));
  }
}

TEST(Integration, Table4PipelineFull48States) {
  const auto p = datasets::MakeMigration(datasets::Table4Specs()[0]);
  SeaOptions o;
  o.epsilon = 1e-4;
  o.criterion = StopCriterion::kResidualRel;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  const auto rep = CheckFeasibility(p, run.solution);
  EXPECT_LT(rep.MaxRel(), 1e-3);
}

TEST(Integration, Table5PipelineSmall) {
  Rng rng(3);
  const auto spe_problem = spe::Generate(25, 25, rng);
  SeaOptions o;
  o.epsilon = 1e-8;
  o.criterion = StopCriterion::kResidualAbs;
  const auto run = SolveDiagonal(spe_problem.ToDiagonalProblem(), o);
  ASSERT_TRUE(run.result.converged());
  EXPECT_LT(spe::CheckEquilibrium(spe_problem, run.solution.x).Max(), 1e-4);
}

TEST(Integration, SeaHandlesRasInfeasibleInstance) {
  // On supports where RAS fails, SEA still solves the least-squares
  // problem (it can move off the support at finite cost).
  DenseMatrix x0(2, 2, 0.0);
  x0(0, 0) = 1.0;
  x0(0, 1) = 1.0;
  x0(1, 1) = 1.0;
  const Vector s0{2.0, 5.0}, d0{5.0, 2.0};

  const auto ras = SolveRas(x0, s0, d0, {.max_iterations = 2000});
  EXPECT_NE(ras.status, RasStatus::kConverged);

  DenseMatrix gamma(2, 2, 1.0);
  const auto p = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
  SeaOptions o;
  o.epsilon = 1e-9;
  o.criterion = StopCriterion::kResidualAbs;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  const auto oracle = SolveEnumerativeKkt(p);
  ASSERT_TRUE(oracle.has_value());
  EXPECT_LT(run.solution.x.MaxAbsDiff(oracle->x), 1e-6);
}

TEST(Integration, WeightSchemesChangeSolutionsPredictably) {
  // Chi-square weights protect small entries relative to unit weights: the
  // relative adjustment of small cells shrinks.
  Rng rng(4);
  DenseMatrix x0(6, 6);
  for (double& v : x0.Flat()) v = rng.Uniform(0.1, 10.0);
  x0(0, 0) = 0.01;  // one tiny cell
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.5;
  for (double& v : d0) v *= 1.5;

  SeaOptions o;
  o.epsilon = 1e-9;
  o.criterion = StopCriterion::kResidualAbs;

  const auto unit = SolveDiagonal(
      DiagonalProblem::MakeFixed(x0, DenseMatrix(6, 6, 1.0), s0, d0), o);
  const auto chi = SolveDiagonal(
      DiagonalProblem::MakeFixed(x0, datasets::ChiSquareWeights(x0), s0, d0),
      o);
  ASSERT_TRUE(unit.result.converged());
  ASSERT_TRUE(chi.result.converged());
  const double rel_unit = std::abs(unit.solution.x(0, 0) - 0.01) / 0.01;
  const double rel_chi = std::abs(chi.solution.x(0, 0) - 0.01) / 0.01;
  EXPECT_LT(rel_chi, rel_unit);
}

TEST(Integration, GeneralMigrationInstanceSolvesEndToEnd) {
  // Table 8 protocol at full scale is a bench concern; here a structurally
  // identical scaled instance exercises the path.
  const auto p = datasets::MakeGeneralMigration(datasets::Table8Specs()[0]);
  ASSERT_EQ(p.G().rows(), 2304u);
  // Solve with loose tolerance to keep test time bounded.
  GeneralSeaOptions o;
  o.outer_epsilon = 1.0;
  o.inner.criterion = StopCriterion::kResidualRel;
  o.inner.epsilon = 1e-3;
  o.max_outer_iterations = 10;
  const auto run = SolveGeneral(p, o);
  EXPECT_GE(run.result.outer_iterations, 1u);
  EXPECT_GE(CheckFeasibility(run.solution.x, p.s0(), p.d0()).min_x, 0.0);
}

}  // namespace
}  // namespace sea
