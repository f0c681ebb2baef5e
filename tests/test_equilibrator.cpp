#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>

#include "datasets/weights.hpp"
#include "equilibration/equilibrator.hpp"
#include "parallel/parallel_for.hpp"
#include "support/rng.hpp"

// Every global allocation bumps this counter; FusedCheck's
// WarmSweepAllocatesNothing reads it around warm sweeps. (GCC flags the
// malloc/free pair behind a replaced operator new as mismatched.)
std::atomic<std::size_t> g_allocations{0};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace sea {
namespace {

// Verifies the KKT conditions of one market's QP:
//   min sum_j w_j (x_j - c_j)^2 - sum_j mu_j x_j
//   s.t. sum_j x_j = total, x >= 0
// at the solver's (x, lambda): stationarity on the support, one-sided
// elsewhere, and the clearing equation.
void ExpectMarketKkt(std::span<const double> centers,
                     std::span<const double> weights,
                     std::span<const double> mu, double total, double lambda,
                     std::span<const double> x, double tol = 1e-9) {
  double sum = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    EXPECT_GE(x[j], 0.0);
    sum += x[j];
    const double resid =
        2.0 * weights[j] * (x[j] - centers[j]) - mu[j] - lambda;
    if (x[j] > 1e-10) {
      EXPECT_NEAR(resid, 0.0, tol) << "j=" << j;
    } else {
      EXPECT_GE(resid, -tol) << "j=" << j;
    }
  }
  EXPECT_NEAR(sum, total, tol * std::max(1.0, std::abs(total)));
}

TEST(EquilibrateMarket, FixedTotalKkt) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.NextIndex(40);
    Vector centers = rng.UniformVector(n, -5.0, 20.0);
    Vector weights = rng.UniformVector(n, 0.1, 3.0);
    Vector mu = rng.UniformVector(n, -2.0, 2.0);
    const double total = rng.Uniform(1.0, 50.0);
    Vector slopes(n), x(n);
    ArcSlopes(weights, slopes);
    BreakpointWorkspace ws;
    const auto res = EquilibrateMarket(centers, slopes, mu, total, 0.0, ws, x);
    ASSERT_TRUE(res.feasible);
    ExpectMarketKkt(centers, weights, mu, total, res.lambda, x);
  }
}

TEST(EquilibrateMarket, ElasticTargetConsistency) {
  // Elastic response S(lambda) = u + v*lambda must equal sum_j x_j.
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(30);
    Vector centers = rng.UniformVector(n, -5.0, 20.0);
    Vector weights = rng.UniformVector(n, 0.1, 3.0);
    Vector mu(n, 0.0);
    const double u = rng.Uniform(0.0, 40.0);
    const double v = -rng.Uniform(0.05, 2.0);
    Vector slopes(n), x(n);
    ArcSlopes(weights, slopes);
    BreakpointWorkspace ws;
    const auto res = EquilibrateMarket(centers, slopes, mu, u, v, ws, x);
    double sum = 0.0;
    for (double xi : x) sum += xi;
    EXPECT_NEAR(sum, u + v * res.lambda, 1e-9 * std::max(1.0, std::abs(sum)));
  }
}

DenseMatrix RandomPositiveMatrix(std::size_t m, std::size_t n, Rng& rng,
                                 double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

// Sweep options on `pool` (null = serial) whose per-worker scratch lives in
// `scratch`, grown to one slot per worker.
SweepOptions OptionsOn(ThreadPool* pool, std::vector<SweepSlot>& scratch) {
  scratch.resize(std::max(scratch.size(), WorkerCount(pool)));
  SweepOptions opts;
  opts.pool = pool;
  opts.scratch = scratch;
  return opts;
}

TEST(EquilibrateSide, MatchesPerMarketCalls) {
  Rng rng(3);
  const std::size_t m = 9, n = 13;
  const auto centers = RandomPositiveMatrix(m, n, rng, -3.0, 10.0);
  const auto slopes = ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.2, 2.0));
  const Vector mu = rng.UniformVector(n, -1.0, 1.0);
  Vector s0 = rng.UniformVector(m, 5.0, 50.0);

  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;

  Vector mult(m);
  DenseMatrix x(m, n);
  std::vector<SweepSlot> scratch;
  EquilibrateSide(centers, slopes, mu, side, mult, &x,
                  OptionsOn(nullptr, scratch));

  for (std::size_t i = 0; i < m; ++i) {
    BreakpointWorkspace ws;
    Vector xi(n);
    const auto res = EquilibrateMarket(centers.Row(i), slopes.Row(i), mu,
                                       s0[i], 0.0, ws, xi);
    EXPECT_DOUBLE_EQ(mult[i], res.lambda);
    for (std::size_t j = 0; j < n; ++j) EXPECT_DOUBLE_EQ(x(i, j), xi[j]);
  }
}

TEST(EquilibrateSide, ParallelBitIdenticalToSerial) {
  Rng rng(4);
  const std::size_t m = 63, n = 41;
  const auto centers = RandomPositiveMatrix(m, n, rng, -3.0, 10.0);
  const auto slopes = ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.2, 2.0));
  const Vector mu = rng.UniformVector(n, -1.0, 1.0);
  const Vector s0 = rng.UniformVector(m, 5.0, 50.0);

  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;

  Vector mult_serial(m), mult_par(m);
  DenseMatrix x_serial(m, n), x_par(m, n);
  std::vector<SweepSlot> scratch;
  EquilibrateSide(centers, slopes, mu, side, mult_serial, &x_serial,
                  OptionsOn(nullptr, scratch));

  ThreadPool pool(4);
  EquilibrateSide(centers, slopes, mu, side, mult_par, &x_par,
                  OptionsOn(&pool, scratch));

  for (std::size_t i = 0; i < m; ++i)
    EXPECT_EQ(mult_serial[i], mult_par[i]) << i;
  EXPECT_DOUBLE_EQ(x_serial.MaxAbsDiff(x_par), 0.0);
}

TEST(EquilibrateSide, OpsAreTheSumOfPerMarketOps) {
  Rng rng(5);
  const std::size_t m = 7, n = 11;
  const auto centers = RandomPositiveMatrix(m, n, rng, 0.0, 5.0);
  const auto slopes = ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.5, 1.5));
  const Vector mu(n, 0.0);
  const Vector s0 = rng.UniformVector(m, 1.0, 10.0);

  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;
  OpCounts expected;
  for (std::size_t i = 0; i < m; ++i) {
    BreakpointWorkspace ws;
    expected +=
        EquilibrateMarket(centers.Row(i), slopes.Row(i), mu, s0[i], 0.0, ws, {})
            .ops;
  }

  ThreadPool pool(4);
  std::vector<SweepSlot> scratch;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Vector mult(m);
    const auto stats = EquilibrateSide(centers, slopes, mu, side, mult,
                                       nullptr, OptionsOn(p, scratch));
    EXPECT_EQ(stats.markets, m);
    EXPECT_EQ(stats.total_ops.flops, expected.flops);
    EXPECT_EQ(stats.total_ops.comparisons, expected.comparisons);
    EXPECT_EQ(stats.total_ops.breakpoints, expected.breakpoints);
  }
}

TEST(EquilibrateSide, SamCouplingEntersTarget) {
  // For the SAM side, the clearing response is
  // S_i = t0_i - (lambda_i + coupling_i) / (2 w_i); verify against a manual
  // elastic call with the shifted intercept.
  Rng rng(6);
  const std::size_t n = 6;
  const auto centers = RandomPositiveMatrix(n, n, rng, 0.0, 5.0);
  const auto slopes = ArcSlopes(RandomPositiveMatrix(n, n, rng, 0.5, 1.5));
  const Vector cross = rng.UniformVector(n, -1.0, 1.0);
  const Vector coupling = rng.UniformVector(n, -2.0, 2.0);
  const Vector t0 = rng.UniformVector(n, 5.0, 15.0);
  const Vector w = rng.UniformVector(n, 0.3, 2.0);

  MarketSide side;
  side.mode = TotalsMode::kSam;
  side.t0 = t0;
  side.weight = w;
  side.coupling = coupling;
  Vector mult(n);
  std::vector<SweepSlot> scratch;
  EquilibrateSide(centers, slopes, cross, side, mult, nullptr,
                  OptionsOn(nullptr, scratch));

  for (std::size_t i = 0; i < n; ++i) {
    BreakpointWorkspace ws;
    const double u = t0[i] - coupling[i] / (2.0 * w[i]);
    const double v = -1.0 / (2.0 * w[i]);
    const auto res = EquilibrateMarket(centers.Row(i), slopes.Row(i), cross,
                                       u, v, ws, {});
    EXPECT_DOUBLE_EQ(mult[i], res.lambda);
  }
}

// ---------------------------------------------------------------------------
// Sweep scheduling: pooled sweeps must produce identical mult_out and
// identical SweepStats::total_ops at every thread count — the markets are
// independent, so the claimed chunks cannot change what is computed, only
// who computes it.

TEST(SweepScheduling, PooledSweepsMatchSerialExactly) {
  Rng rng(7);
  const std::size_t m = 57, n = 23;
  const auto centers = RandomPositiveMatrix(m, n, rng, -3.0, 10.0);
  const auto slopes = ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.2, 2.0));
  const Vector mu = rng.UniformVector(n, -1.0, 1.0);
  const Vector s0 = rng.UniformVector(m, 5.0, 50.0);

  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;

  Vector mult_serial(m);
  DenseMatrix x_serial(m, n);
  std::vector<SweepSlot> serial_scratch;
  const auto stats_serial =
      EquilibrateSide(centers, slopes, mu, side, mult_serial, &x_serial,
                      OptionsOn(nullptr, serial_scratch));

  for (std::size_t threads : {2u, 3u, 4u, 7u}) {
    ThreadPool pool(threads);
    std::vector<SweepSlot> scratch;
    for (int sweep = 0; sweep < 4; ++sweep) {
      Vector mult(m);
      DenseMatrix x(m, n);
      const auto stats = EquilibrateSide(centers, slopes, mu, side, mult, &x,
                                         OptionsOn(&pool, scratch));
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_EQ(mult_serial[i], mult[i]) << "threads " << threads;
      EXPECT_DOUBLE_EQ(x_serial.MaxAbsDiff(x), 0.0);
      EXPECT_EQ(stats_serial.total_ops.comparisons,
                stats.total_ops.comparisons);
      EXPECT_EQ(stats_serial.total_ops.flops, stats.total_ops.flops);
      EXPECT_EQ(stats_serial.total_ops.breakpoints,
                stats.total_ops.breakpoints);
    }
  }
}

TEST(SweepScheduling, ReuseAcrossSweepsViaCache) {
  Rng rng(9);
  const std::size_t m = 15, n = 140;  // n > threshold: radix vs repair
  const auto centers = RandomPositiveMatrix(m, n, rng, -3.0, 10.0);
  const auto slopes = ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.2, 2.0));
  const Vector mu = rng.UniformVector(n, -1.0, 1.0);
  const Vector s0 = rng.UniformVector(m, 5.0, 50.0);
  // Totals that activate more than n/4 arcs of every market, so its order
  // is stored and repaired; s0's leave few active, and those markets clear
  // on the prefix.
  const Vector s0_high = rng.UniformVector(m, 5000.0, 6000.0);
  for (const Vector* totals : {&s0, &s0_high}) {
    const bool high = totals == &s0_high;
    SCOPED_TRACE(high);
    MarketSide side;
    side.mode = TotalsMode::kFixed;
    side.t0 = *totals;

    // No cache: every market cold-sorts (radix sort, n > threshold) or
    // clears on the prefix.
    Vector mult_cold(m);
    std::vector<SweepSlot> scratch;
    const auto cold_stats =
        EquilibrateSide(centers, slopes, mu, side, mult_cold, nullptr,
                        OptionsOn(nullptr, scratch));

    SortOrderCache cache;
    cache.Reset(m);
    SweepOptions reuse_opts = OptionsOn(nullptr, scratch);
    reuse_opts.sort_cache = &cache;
    Vector mult_reuse(m);
    auto stats =
        EquilibrateSide(centers, slopes, mu, side, mult_reuse, nullptr,
                        reuse_opts);
    EXPECT_EQ(stats.order_reuses, 0u);  // first sweep establishes the orders
    stats = EquilibrateSide(centers, slopes, mu, side, mult_reuse, nullptr,
                            reuse_opts);
    EXPECT_EQ(stats.order_reuses, high ? m : 0u);
    EXPECT_EQ(stats.prefix_clearings, high ? 0u : m);
    EXPECT_EQ(stats.total_ops.inversions, 0u);
    if (high) {
      // Repairing an unchanged order is a pure verify pass, one comparison
      // per adjacent pair, in place of the cold sort's charge; the clearing
      // sweeps are the same.
      EXPECT_EQ(stats.total_ops.comparisons + m * kRadixSortOpsPerKey * n,
                cold_stats.total_ops.comparisons + m * (n - 1));
    } else {
      // The prefix clearing reads no order: the same work with a cache.
      EXPECT_EQ(stats.total_ops.comparisons, cold_stats.total_ops.comparisons);
    }
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_EQ(mult_cold[i], mult_reuse[i]) << i;
  }
}

TEST(SweepScheduling, ReuseUnderPool) {
  // The cache is safe under a pool (each market solved exactly once per
  // sweep); dynamic claiming must not corrupt the per-market orders.
  Rng rng(10);
  const std::size_t m = 33, n = 20;
  const auto centers = RandomPositiveMatrix(m, n, rng, -3.0, 10.0);
  const auto slopes = ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.2, 2.0));
  const Vector mu = rng.UniformVector(n, -1.0, 1.0);
  const Vector s0 = rng.UniformVector(m, 5.0, 50.0);
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;

  Vector mult_ref(m);
  std::vector<SweepSlot> scratch;
  EquilibrateSide(centers, slopes, mu, side, mult_ref, nullptr,
                  OptionsOn(nullptr, scratch));

  ThreadPool pool(4);
  SortOrderCache cache;
  cache.Reset(m);
  for (int sweep = 0; sweep < 3; ++sweep) {
    Vector mult(m);
    SweepOptions opts = OptionsOn(&pool, scratch);
    opts.sort_cache = &cache;
    const auto stats =
        EquilibrateSide(centers, slopes, mu, side, mult, nullptr, opts);
    for (std::size_t i = 0; i < m; ++i) EXPECT_EQ(mult_ref[i], mult[i]);
    if (sweep > 0) {
      EXPECT_EQ(stats.order_reuses, static_cast<std::uint64_t>(m));
    }
  }
}

// The sparse layout runs the same sweep body: on a full pattern it must
// reproduce the dense sweep bit for bit, serially and under a pool, in
// every regime the sparse solver accepts.
TEST(SweepScheduling, SparseLayoutMatchesDenseOnFullPattern) {
  Rng rng(11);
  const std::size_t m = 29, n = 18;
  const auto centers = RandomPositiveMatrix(m, n, rng, 0.5, 10.0);
  const auto slopes = ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.2, 2.0));
  const SparseMatrix sc = SparseMatrix::FromDense(centers);
  const SparseMatrix sq = SparseMatrix::FromDense(slopes);
  ASSERT_EQ(sc.nnz(), m * n);
  const Vector mu = rng.UniformVector(n, -1.0, 1.0);
  const Vector t0 = rng.UniformVector(m, 5.0, 50.0);
  const Vector w = rng.UniformVector(m, 0.3, 2.0);

  ThreadPool pool(3);
  std::vector<SweepSlot> scratch;
  for (TotalsMode mode : {TotalsMode::kFixed, TotalsMode::kElastic}) {
    MarketSide side;
    side.mode = mode;
    side.t0 = t0;
    if (mode == TotalsMode::kElastic) side.weight = w;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const SweepOptions opts = OptionsOn(p, scratch);
      Vector mult_dense(m), mult_sparse(m);
      DenseMatrix x_dense(m, n);
      SparseMatrix x_sparse = sc;
      const auto dense = EquilibrateSide(centers, slopes, mu, side,
                                         mult_dense, &x_dense, opts);
      const auto sparse =
          EquilibrateSide(sc, sq, mu, side, mult_sparse, &x_sparse, opts);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_EQ(mult_dense[i], mult_sparse[i]) << i;
      const auto xs = x_sparse.Values();
      const auto xd = x_dense.Flat();
      ASSERT_EQ(xs.size(), xd.size());
      for (std::size_t k = 0; k < xs.size(); ++k) EXPECT_EQ(xd[k], xs[k]);
      EXPECT_EQ(dense.total_ops.flops, sparse.total_ops.flops);
      EXPECT_EQ(dense.total_ops.comparisons, sparse.total_ops.comparisons);
      EXPECT_EQ(dense.markets, sparse.markets);
    }
  }
}

// Whole SEA iterations — alternating row and column sweeps, every regime —
// with and without order caches: the repaired orders drift with the
// multipliers sweep after sweep, yet every multiplier and allocation stays
// bit-identical to the cold-sorted sweeps (one total order, ties by index).
// The 150-arc row markets' second sweep churns past the repair budget and
// hands over to the cold sort (their first cleared against mu = 0); that
// path must match the cold sorts too.
TEST(EquilibrateSide, OrderCacheSweepsBitIdenticalToColdSweeps) {
  Rng rng(12);
  const std::size_t m = 21, n = 150;  // column markets insertion, rows radix
  const auto centers = RandomPositiveMatrix(m, n, rng, -3.0, 10.0);
  const auto slopes = ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.2, 2.0));
  const DenseMatrix centers_t = centers.Transposed();
  const DenseMatrix slopes_t = slopes.Transposed();
  const Vector s0 = rng.UniformVector(m, 50.0, 400.0);
  const Vector d0 = rng.UniformVector(n, 2.0, 30.0);
  const Vector alpha = rng.UniformVector(m, 0.3, 2.0);
  const Vector beta = rng.UniformVector(n, 0.3, 2.0);
  const Vector s_lo = rng.UniformVector(m, 0.0, 40.0);
  const Vector s_hi = rng.UniformVector(m, 400.0, 500.0);
  const Vector d_lo = rng.UniformVector(n, 0.0, 2.0);
  const Vector d_hi = rng.UniformVector(n, 30.0, 40.0);

  ThreadPool pool(3);
  std::vector<SweepSlot> scratch;
  for (TotalsMode mode :
       {TotalsMode::kFixed, TotalsMode::kElastic, TotalsMode::kInterval}) {
    MarketSide rows, cols;
    rows.mode = cols.mode = mode;
    rows.t0 = s0;
    cols.t0 = d0;
    if (mode != TotalsMode::kFixed) {
      rows.weight = alpha;
      cols.weight = beta;
      rows.lo = s_lo;
      rows.hi = s_hi;
      cols.lo = d_lo;
      cols.hi = d_hi;
    }
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SortOrderCache row_orders, col_orders;
      row_orders.Reset(m);
      col_orders.Reset(n);
      Vector lambda_cold(m, 0.0), mu_cold(n, 0.0);
      Vector lambda_warm(m, 0.0), mu_warm(n, 0.0);
      DenseMatrix xt_cold(n, m), xt_warm(n, m);
      const SweepOptions cold = OptionsOn(p, scratch);
      SweepOptions warm = cold;
      std::uint64_t row_reuses = 0, row_prefix = 0, col_reuses = 0;
      for (int sweep = 0; sweep < 6; ++sweep) {
        EquilibrateSide(centers, slopes, mu_cold, rows, lambda_cold, nullptr,
                        cold);
        warm.sort_cache = &row_orders;
        const SweepStats row_stats = EquilibrateSide(
            centers, slopes, mu_warm, rows, lambda_warm, nullptr, warm);
        row_reuses += row_stats.order_reuses;
        row_prefix += row_stats.prefix_clearings;
        EquilibrateSide(centers_t, slopes_t, lambda_cold, cols, mu_cold,
                        &xt_cold, cold);
        warm.sort_cache = &col_orders;
        col_reuses += EquilibrateSide(centers_t, slopes_t, lambda_warm, cols,
                                      mu_warm, &xt_warm, warm)
                          .order_reuses;
        const std::string tag = "mode=" + std::to_string(int(mode)) +
                                " sweep=" + std::to_string(sweep);
        ASSERT_EQ(0, std::memcmp(lambda_cold.data(), lambda_warm.data(),
                                 m * sizeof(double)))
            << tag;
        ASSERT_EQ(0, std::memcmp(mu_cold.data(), mu_warm.data(),
                                 n * sizeof(double)))
            << tag;
        ASSERT_EQ(0, std::memcmp(xt_cold.Flat().data(), xt_warm.Flat().data(),
                                 m * n * sizeof(double)))
            << tag;
      }
      EXPECT_EQ(col_reuses, 5 * n);  // every sweep after the first
      // All but the churned second sweep repair or clear on the prefix
      // (interval rows always repair).
      EXPECT_GE(row_reuses + row_prefix, 4 * m);
      if (mode == TotalsMode::kInterval) {
        EXPECT_EQ(row_prefix, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The fused kXChange check: a materializing sweep folds the largest
// |new - old| it writes over the previous primal into
// SweepStats::max_change, the kXChange measure's std::max fold from 0.

// The previous primal, built from the new one so the fold meets every kind
// of entry: unchanged values, -0.0 where the new value is +0.0, NaN (the
// fold skips it), +inf (the fold keeps it), and moved values.
void SeedPrevious(std::span<const double> fresh, std::span<double> prev,
                  bool with_inf, Rng& rng) {
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    switch (k % 5) {
      case 0:
        prev[k] = fresh[k];
        break;
      case 1:
        prev[k] = fresh[k] == 0.0 ? -0.0 : fresh[k];
        break;
      case 2:
        prev[k] = std::nan("");
        break;
      case 3:
        prev[k] = fresh[k] + rng.Uniform(-1.0, 1.0);
        break;
      default:
        prev[k] = k == 4 && with_inf ? INFINITY : -0.0;
        break;
    }
  }
}

double BruteForceChange(std::span<const double> fresh,
                        std::span<const double> prev) {
  double change = 0.0;
  for (std::size_t k = 0; k < fresh.size(); ++k)
    change = std::max(change, std::abs(fresh[k] - prev[k]));
  return change;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(FusedCheck, MaxChangeMatchesBruteForceDenseAndCsr) {
  Rng rng(13);
  const std::size_t m = 37, n = 29;
  // Negative centers clamp some allocations to +0.0; zeros thin the CSR
  // pattern.
  auto centers = RandomPositiveMatrix(m, n, rng, -3.0, 10.0);
  for (std::size_t k = 0; k < centers.size(); k += 4) centers.Flat()[k] = 0.0;
  const auto slopes = ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.2, 2.0));
  const SparseMatrix sc = SparseMatrix::FromDense(centers);
  SparseMatrix sq = sc;
  for (std::size_t i = 0; i < m; ++i) {
    const auto cols = sc.RowCols(i);
    const auto vals = sq.MutableRowValues(i);
    for (std::size_t k = 0; k < cols.size(); ++k) vals[k] = slopes(i, cols[k]);
  }
  ASSERT_LT(sc.nnz(), m * n);
  const Vector mu = rng.UniformVector(n, -1.0, 1.0);
  const Vector s0 = rng.UniformVector(m, 5.0, 50.0);
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;

  // The new primal, from a serial sweep into zeros.
  std::vector<SweepSlot> scratch;
  Vector mult(m);
  DenseMatrix fresh_dense(m, n);
  SparseMatrix fresh_sparse = sc;
  EquilibrateSide(centers, slopes, mu, side, mult, &fresh_dense,
                  OptionsOn(nullptr, scratch));
  EquilibrateSide(sc, sq, mu, side, mult, &fresh_sparse,
                  OptionsOn(nullptr, scratch));
  ASSERT_GT(std::count(fresh_dense.Flat().begin(), fresh_dense.Flat().end(),
                       0.0),
            0);

  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const SweepOptions opts = OptionsOn(&pool, scratch);
    for (bool with_inf : {false, true}) {
      const std::string tag = "threads=" + std::to_string(threads) +
                              " inf=" + std::to_string(with_inf);
      DenseMatrix x(m, n);
      SeedPrevious(fresh_dense.Flat(), x.Flat(), with_inf, rng);
      double expect = BruteForceChange(fresh_dense.Flat(), x.Flat());
      ASSERT_EQ(std::isinf(expect), with_inf) << tag;
      auto stats = EquilibrateSide(centers, slopes, mu, side, mult, &x, opts);
      EXPECT_TRUE(SameBits(stats.max_change, expect)) << tag;
      EXPECT_EQ(0, std::memcmp(x.Flat().data(), fresh_dense.Flat().data(),
                               m * n * sizeof(double)))
          << tag;

      SparseMatrix xs = sc;
      SeedPrevious(fresh_sparse.Values(), xs.MutableValues(), with_inf, rng);
      expect = BruteForceChange(fresh_sparse.Values(), xs.Values());
      stats = EquilibrateSide(sc, sq, mu, side, mult, &xs, opts);
      EXPECT_TRUE(SameBits(stats.max_change, expect)) << tag;
    }

    // All-NaN and signed-zero-only previous primals fold to +0.0; an
    // unmaterialized sweep reports 0.
    DenseMatrix x(m, n);
    std::fill(x.Flat().begin(), x.Flat().end(), std::nan(""));
    auto stats = EquilibrateSide(centers, slopes, mu, side, mult, &x, opts);
    EXPECT_TRUE(SameBits(stats.max_change, 0.0)) << threads;
    for (std::size_t k = 0; k < x.size(); ++k)
      if (x.Flat()[k] == 0.0) x.Flat()[k] = -0.0;
    stats = EquilibrateSide(centers, slopes, mu, side, mult, &x, opts);
    EXPECT_TRUE(SameBits(stats.max_change, 0.0)) << threads;
    stats = EquilibrateSide(centers, slopes, mu, side, mult, nullptr, opts);
    EXPECT_TRUE(SameBits(stats.max_change, 0.0)) << threads;
  }
}

// A chi-square side (slopes of gamma = 1/x0) over centers with ~45%
// structural zeros: offsets c/q of 2 on the support and exactly 0 on a
// zero, so every market holds two offset classes and is seedable.
DenseMatrix ChiSquareCenters(std::size_t m, std::size_t n, Rng& rng) {
  DenseMatrix x0(m, n, 0.0);
  for (double& v : x0.Flat())
    if (rng.Bernoulli(0.55)) v = rng.Uniform(1.0, 100.0);
  return x0;
}

TEST(FusedCheck, WarmSweepAllocatesNothing) {
  // Once every scratch slot and the order cache have seen a sweep, a pooled
  // materializing sweep reuses every buffer, also after a seeding sweep and
  // after a zero sweep that seeded every market from its offsets.
  Rng rng(14);
  const std::size_t m = 40, n = 150;  // both cold-sort kinds over the rows
  const auto random_centers = RandomPositiveMatrix(m, n, rng, -3.0, 10.0);
  const auto random_slopes =
      ArcSlopes(RandomPositiveMatrix(m, n, rng, 0.2, 2.0));
  const auto chi_centers = ChiSquareCenters(m, n, rng);
  const auto chi_slopes = ArcSlopes(datasets::ChiSquareWeights(chi_centers));
  const Vector mu = rng.UniformVector(n, -1.0, 1.0);
  const Vector zero(n, 0.0);
  const Vector s0 = rng.UniformVector(m, 5.0, 50.0);
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;
  ThreadPool pool(2);
  std::vector<SweepSlot> scratch;
  const SweepOptions pooled = OptionsOn(&pool, scratch);
  Vector mult(m);
  DenseMatrix x(m, n);
  enum First { kCold, kByMult, kByOffsets };
  for (First first_sweep : {kCold, kByMult, kByOffsets}) {
    SCOPED_TRACE(first_sweep);
    const DenseMatrix& centers =
        first_sweep == kCold ? random_centers : chi_centers;
    const DenseMatrix& slopes =
        first_sweep == kCold ? random_slopes : chi_slopes;
    // The zero sweep seeds every market and leaves the side uninformed, so
    // the warm sweeps after it meet zero multipliers too.
    const Vector& other = first_sweep == kByOffsets ? zero : mu;
    SortOrderCache cache;
    cache.Reset(m);
    SweepOptions opts = pooled;
    opts.sort_cache = &cache;
    const auto first =
        EquilibrateSide(centers, slopes, other, side, mult, &x, opts);
    EXPECT_EQ(cache.informed(), first_sweep != kByOffsets);
    EXPECT_EQ(first.order_reuses, first_sweep == kCold ? 0u : m);
    // Whichever worker claims which chunk, each slot has grown every
    // buffer: one serial sweep through each slot in turn.
    for (SweepSlot& slot : scratch) {
      SweepOptions one = opts;
      one.pool = nullptr;
      one.scratch = std::span<SweepSlot>(&slot, 1);
      EquilibrateSide(centers, slopes, other, side, mult, &x, one);
    }
    const std::size_t before = g_allocations.load();
    for (int sweep = 0; sweep < 3; ++sweep)
      EquilibrateSide(centers, slopes, other, side, mult, &x, opts);
    EXPECT_EQ(g_allocations.load() - before, 0u);
  }
}

// ---------------------------------------------------------------------------
// One order per sweep (docs/KERNELS.md): a side's first sweep against
// nonzero crossing multipliers seeds each seedable market's order from the
// multipliers' shared order.

TEST(OrderSeeding, SeededSweepsRepairWithoutInversionsDenseAndCsr) {
  Rng rng(21);
  const std::size_t m = 12, n = 170;  // markets above kInsertionThreshold
  const auto x0 = ChiSquareCenters(m, n, rng);
  const auto gamma = datasets::ChiSquareWeights(x0);
  const auto slopes = ArcSlopes(gamma);
  // The CSR side is posed on x0's pattern: one offset class per market.
  DenseMatrix pattern_gamma(m, n, 0.0);
  for (std::size_t e = 0; e < x0.size(); ++e)
    if (x0.Flat()[e] > 0.0) pattern_gamma.Flat()[e] = gamma.Flat()[e];
  const SparseMatrix sx0 = SparseMatrix::FromDense(x0);
  const SparseMatrix sslopes =
      ArcSlopes(SparseMatrix::FromDense(pattern_gamma));
  ASSERT_TRUE(sslopes.SamePattern(sx0));
  const Vector zero(n, 0.0);
  const Vector mu = rng.UniformVector(n, -0.5, 0.5);
  Vector s0 = x0.RowSums();
  for (double& v : s0) v *= 1.1;
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;

  std::vector<SweepSlot> scratch;
  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const SweepOptions cold = OptionsOn(threads > 1 ? &pool : nullptr, scratch);
    // Reference: cache-less sweeps, which cold-sort every market.
    Vector dense_cold(m), sparse_cold(m);
    EquilibrateSide(x0, slopes, mu, side, dense_cold, nullptr, cold);
    EquilibrateSide(sx0, sslopes, mu, side, sparse_cold, nullptr, cold);

    for (bool sparse : {false, true}) {
      SCOPED_TRACE(sparse);
      SortOrderCache cache;
      cache.Reset(m);
      SweepOptions opts = cold;
      opts.sort_cache = &cache;
      Vector mult(m);
      const auto sweep = [&](const Vector& other) {
        return sparse ? EquilibrateSide(sx0, sslopes, other, side, mult,
                                        nullptr, opts)
                      : EquilibrateSide(x0, slopes, other, side, mult,
                                        nullptr, opts);
      };
      // Against mu = 0 every market repairs the order seeded from its
      // offsets; those orders carry no information about nonzero
      // multipliers, so the side stays uninformed.
      EXPECT_EQ(sweep(zero).order_reuses, m);
      EXPECT_FALSE(cache.informed());
      // The seeding sweep: every market repairs its seed, which is already
      // the KeyLess order.
      const auto seeded = sweep(mu);
      EXPECT_TRUE(cache.informed());
      EXPECT_EQ(seeded.order_reuses, m);
      EXPECT_EQ(seeded.total_ops.inversions, 0u);
      const Vector& ref = sparse ? sparse_cold : dense_cold;
      EXPECT_EQ(0, std::memcmp(mult.data(), ref.data(), m * sizeof(double)));
    }
  }
}

TEST(OrderSeeding, NoiseMultipliersColdSortAndNeverHandOver) {
  // Table 1's shape: the crossing multipliers are equal up to rounding, so
  // their order is noise. The seeding sweep drops the stale orders and
  // cold-sorts instead of repairing (and handing over). The orders it
  // stores are noise too, so the side stays uninformed: the next noise
  // sweep cold-sorts again, and the first informative one seeds.
  Rng rng(22);
  const std::size_t m = 10, n = 200;
  const auto x0 = ChiSquareCenters(m, n, rng);
  const auto slopes = ArcSlopes(datasets::ChiSquareWeights(x0));
  const Vector zero(n, 0.0);
  Vector noise(n);
  for (double& v : noise)
    v = 0.25 * (1.0 + double(rng.NextIndex(4)) *
                          std::numeric_limits<double>::epsilon());
  Vector s0 = x0.RowSums();
  for (double& v : s0) v *= 2.0;
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;

  std::vector<SweepSlot> scratch;
  const SweepOptions cold = OptionsOn(nullptr, scratch);
  Vector ref(m), mult(m);
  const auto cold_stats =
      EquilibrateSide(x0, slopes, noise, side, ref, nullptr, cold);
  SortOrderCache cache;
  cache.Reset(m);
  SweepOptions opts = cold;
  opts.sort_cache = &cache;
  EquilibrateSide(x0, slopes, zero, side, mult, nullptr, opts);
  const auto stats =
      EquilibrateSide(x0, slopes, noise, side, mult, nullptr, opts);
  EXPECT_EQ(stats.order_reuses, 0u);
  EXPECT_EQ(stats.total_ops.inversions, 0u);
  EXPECT_EQ(stats.total_ops.comparisons, cold_stats.total_ops.comparisons);
  EXPECT_EQ(0, std::memcmp(mult.data(), ref.data(), m * sizeof(double)));
  EXPECT_FALSE(cache.informed());
  for (double& v : noise) v += std::numeric_limits<double>::epsilon();
  const auto again =
      EquilibrateSide(x0, slopes, noise, side, mult, nullptr, opts);
  EXPECT_EQ(again.order_reuses, 0u);
  EXPECT_EQ(again.total_ops.inversions, 0u);
  EXPECT_FALSE(cache.informed());
  const Vector mu = rng.UniformVector(n, -0.5, 0.5);
  const auto seeded =
      EquilibrateSide(x0, slopes, mu, side, mult, nullptr, opts);
  EXPECT_EQ(seeded.order_reuses, m);
  EXPECT_EQ(seeded.total_ops.inversions, 0u);
  EXPECT_TRUE(cache.informed());
}

// The zero sweep's fixtures: offsets placed bit by bit (slopes are powers
// of two, so c/q is the offset exactly). Each row is one kind:
//  0: a few ulps either side of 2.0, a binade edge (one to three classes);
//  1: a few ulps either side of -4.0, and +-0 centers (two to four);
//  2: exactly kSeedMaxClasses classes, 3, 1, +-0 and -2.5, with jitter;
//  3: five classes, 5, 3, 1, +-0 and -2: not seedable, so it cold-sorts.
double StepsFrom(double center, int steps) {
  const double dir = steps > 0 ? HUGE_VAL : -HUGE_VAL;
  for (int k = 0; k < std::abs(steps); ++k)
    center = std::nextafter(center, dir);
  return center;
}

double OffsetOfKind(std::size_t kind, std::size_t j, Rng& rng) {
  const auto jitter = [&](int reach) {
    return static_cast<int>(rng.NextIndex(2 * reach + 1)) - reach;
  };
  const auto zero = [&] { return rng.Bernoulli(0.5) ? 0.0 : -0.0; };
  switch (kind) {
    case 0:
      return StepsFrom(2.0, jitter(6));
    case 1:
      return j % 4 == 0 ? zero() : StepsFrom(-4.0, jitter(4));
    case 2: {
      const std::size_t c = j < 4 ? j : rng.NextIndex(4);
      if (c == 2) return zero();
      return StepsFrom(c == 0 ? 3.0 : c == 1 ? 1.0 : -2.5, jitter(2));
    }
    default: {
      const std::size_t c = j < 5 ? j : rng.NextIndex(5);
      constexpr double kFive[] = {5.0, 3.0, 1.0, 0.0, -2.0};
      return c == 3 ? zero() : kFive[c];
    }
  }
}

TEST(OrderSeeding, ZeroSweepSeedsExactOrdersDenseAndCsr) {
  const std::size_t m = 12;
  std::vector<SweepSlot> scratch;
  for (std::size_t n : {60u, 170u}) {  // below and above kInsertionThreshold
    for (std::size_t kinds : {3u, 4u}) {  // without and with five classes
      SCOPED_TRACE(testing::Message() << "n=" << n << " kinds=" << kinds);
      Rng rng(23 + n + kinds);
      DenseMatrix centers(m, n), slopes(m, n);
      std::vector<SparseMatrix::Triplet> pattern;
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          const double q =
              std::ldexp(1.0, static_cast<int>(rng.NextIndex(4)) - 2);
          slopes(i, j) = q;
          centers(i, j) = OffsetOfKind(i % kinds, j, rng) * q;
          if (j < 5 || rng.Bernoulli(0.8)) pattern.push_back({i, j, 1.0});
        }
      // The CSR side keeps ~80% of the arcs, the first five of each row
      // (one of each class) among them; FromTriplets would sum -0 to +0,
      // so the values are copied in afterwards.
      SparseMatrix sc = SparseMatrix::FromTriplets(m, n, pattern);
      SparseMatrix sq = sc;
      for (std::size_t i = 0; i < m; ++i) {
        const auto cols = sc.RowCols(i);
        const auto cv = sc.MutableRowValues(i), qv = sq.MutableRowValues(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          cv[k] = centers(i, cols[k]);
          qv[k] = slopes(i, cols[k]);
        }
      }
      Vector s0(m, 1.0);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
          s0[i] += 1.1 * std::max(0.0, centers(i, j));
      MarketSide side;
      side.mode = TotalsMode::kFixed;
      side.t0 = s0;
      const Vector zero(n, 0.0);
      const Vector mu = rng.UniformVector(n, -0.4, 0.4);
      const std::uint64_t seedable = m - (kinds == 4 ? m / 4 : 0);

      for (std::size_t threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        const SweepOptions cold =
            OptionsOn(threads > 1 ? &pool : nullptr, scratch);
        for (bool sparse : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "threads=" << threads << " sparse=" << sparse);
          const auto sweep = [&](const Vector& other, Vector& mult,
                                 const SweepOptions& opts) {
            return sparse ? EquilibrateSide(sc, sq, other, side, mult,
                                            nullptr, opts)
                          : EquilibrateSide(centers, slopes, other, side,
                                            mult, nullptr, opts);
          };
          // Reference: cache-less sweeps, which cold-sort every market.
          Vector zero_ref(m), mu_ref(m), mult(m);
          sweep(zero, zero_ref, cold);
          sweep(mu, mu_ref, cold);

          SortOrderCache cache;
          cache.Reset(m);
          SweepOptions opts = cold;
          opts.sort_cache = &cache;
          // The zero sweep: every seedable market repairs an order that is
          // already exact; the five-class ones cold-sort and are never
          // classified again.
          const auto first = sweep(zero, mult, opts);
          EXPECT_EQ(first.order_reuses, seedable);
          EXPECT_EQ(first.total_ops.inversions, 0u);
          EXPECT_EQ(0, std::memcmp(mult.data(), zero_ref.data(),
                                   m * sizeof(double)));
          EXPECT_FALSE(cache.informed());
          for (std::size_t i = 0; i < m; ++i)
            EXPECT_EQ(cache.Classes(i).state == OffsetClasses::kUnseedable,
                      i % kinds == 3)
                << i;
          // The first sweep against nonzero multipliers still seeds (only
          // a seeding sweep informs the side). Here a value split into
          // classes a few ulps apart seeds an order the repair must fix;
          // SeededSweepsRepairWithoutInversionsDenseAndCsr pins the seed's
          // own exactness.
          sweep(mu, mult, opts);
          EXPECT_TRUE(cache.informed());
          EXPECT_EQ(0, std::memcmp(mult.data(), mu_ref.data(),
                                   m * sizeof(double)));
        }
      }
    }
  }
}

TEST(OrderSeeding, ProvisionalSeedSeedsOnceMore) {
  // The column side after a cold start: its first seed answers multipliers
  // that answered mu = 0, so the side seeds again from the next ones, and
  // only then repairs.
  Rng rng(24);
  const std::size_t m = 10, n = 140;
  const auto x0 = ChiSquareCenters(m, n, rng);
  const auto slopes = ArcSlopes(datasets::ChiSquareWeights(x0));
  Vector s0 = x0.RowSums();
  for (double& v : s0) v *= 1.1;
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;
  const Vector first = rng.UniformVector(n, -0.5, 0.5);
  const Vector next = rng.UniformVector(n, -0.5, 0.5);
  std::vector<SweepSlot> scratch;
  SortOrderCache cache;
  cache.Reset(m);
  cache.MarkSeedProvisional();
  SweepOptions opts = OptionsOn(nullptr, scratch);
  opts.sort_cache = &cache;
  Vector mult(m);
  auto stats = EquilibrateSide(x0, slopes, first, side, mult, nullptr, opts);
  EXPECT_EQ(stats.order_reuses, m);
  EXPECT_EQ(stats.total_ops.inversions, 0u);
  EXPECT_FALSE(cache.informed());
  // Seeded again: nothing of the first order is left to repair.
  stats = EquilibrateSide(x0, slopes, next, side, mult, nullptr, opts);
  EXPECT_EQ(stats.order_reuses, m);
  EXPECT_EQ(stats.total_ops.inversions, 0u);
  EXPECT_TRUE(cache.informed());
  // Informed: the next sweep repairs the stored order.
  stats = EquilibrateSide(x0, slopes, first, side, mult, nullptr, opts);
  EXPECT_GT(stats.total_ops.inversions, 0u);
}

TEST(SweepScheduling, TooLittleScratchRejected) {
  DenseMatrix centers(3, 2, 1.0), slopes(3, 2, 1.0);
  Vector mu(2, 0.0), mult(3), s0{1.0, 2.0, 3.0};
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;
  ThreadPool pool(2);
  std::vector<SweepSlot> scratch(1);  // wrong: 2 workers
  SweepOptions opts;
  opts.pool = &pool;
  opts.scratch = scratch;
  EXPECT_THROW(
      EquilibrateSide(centers, slopes, mu, side, mult, nullptr, opts),
      InvalidArgument);
}

TEST(SweepScheduling, MisSizedSortCacheRejected) {
  DenseMatrix centers(3, 2, 1.0), slopes(3, 2, 1.0);
  Vector mu(2, 0.0), mult(3), s0{1.0, 2.0, 3.0};
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;
  SortOrderCache cache;
  cache.Reset(2);  // wrong: 3 markets
  std::vector<SweepSlot> scratch;
  SweepOptions opts = OptionsOn(nullptr, scratch);
  opts.sort_cache = &cache;
  EXPECT_THROW(
      EquilibrateSide(centers, slopes, mu, side, mult, nullptr, opts),
      InvalidArgument);
}

TEST(EquilibrateSide, RejectsShapeMismatch) {
  DenseMatrix centers(2, 3, 1.0), slopes(2, 3, 1.0);
  Vector bad_mu(2, 0.0), mult(2), s0{1.0, 2.0};
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;
  std::vector<SweepSlot> scratch;
  EXPECT_THROW(EquilibrateSide(centers, slopes, bad_mu, side, mult, nullptr,
                               OptionsOn(nullptr, scratch)),
               InvalidArgument);
}

}  // namespace
}  // namespace sea
