#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <tuple>
#include <vector>

#include "equilibration/breakpoint_solver.hpp"
#include "problems/solution.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

// Reference root finder: bisection on the monotone clearing function
// f(lambda) = sum_j max(0, p_j + q_j lambda) - (u + v lambda).
double Bisect(const std::vector<Arc>& arcs, double u, double v) {
  auto f = [&](double lam) {
    return EvaluateSupply(arcs, lam) - (u + v * lam);
  };
  double lo = -1.0, hi = 1.0;
  while (f(lo) > 0.0) lo *= 2.0;
  while (f(hi) < 0.0) hi *= 2.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    (f(mid) < 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(BreakpointSolver, SingleArcFixedTotal) {
  // max(0, 2 + 0.5 lambda) = 5  =>  lambda = 6.
  BreakpointWorkspace ws;
  ws.Assign({{2.0, 0.5}});
  const auto res = SolveMarket(ws, 5.0, 0.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_NEAR(res.lambda, 6.0, 1e-12);
  EXPECT_EQ(res.active_count, 1u);
}

TEST(BreakpointSolver, TwoArcsOneInactive) {
  // Arcs: max(0, 1 + lambda), max(0, -10 + lambda). Total 3 => first arc
  // alone supplies 3 at lambda = 2 (second still at breakpoint 10).
  BreakpointWorkspace ws;
  ws.Assign({{1.0, 1.0}, {-10.0, 1.0}});
  const auto res = SolveMarket(ws, 3.0, 0.0);
  EXPECT_NEAR(res.lambda, 2.0, 1e-12);
  EXPECT_EQ(res.active_count, 1u);
}

TEST(BreakpointSolver, ElasticClearsBeforeFirstBreakpoint) {
  // Supply zero until lambda = 10; demand side 4 + (-2) lambda hits zero at
  // lambda = 2 < 10: all allocations zero.
  BreakpointWorkspace ws;
  ws.Assign({{-10.0, 1.0}});
  const auto res = SolveMarket(ws, 4.0, -2.0);
  EXPECT_NEAR(res.lambda, 2.0, 1e-12);
  EXPECT_EQ(res.active_count, 0u);
}

TEST(BreakpointSolver, ZeroFixedTotalAllZero) {
  BreakpointWorkspace ws;
  ws.Assign({{3.0, 1.0}, {5.0, 2.0}});
  const auto res = SolveMarket(ws, 0.0, 0.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.active_count, 0u);
  EXPECT_NEAR(EvaluateSupply(ws.p(), ws.q(), res.lambda), 0.0, 1e-12);
}

TEST(BreakpointSolver, NegativeFixedTotalInfeasible) {
  BreakpointWorkspace ws;
  ws.Assign({{1.0, 1.0}});
  const auto res = SolveMarket(ws, -1.0, 0.0);
  EXPECT_FALSE(res.feasible);
}

TEST(BreakpointSolver, EmptyMarketElastic) {
  BreakpointWorkspace ws;
  ws.Resize(0);
  const auto res = SolveMarket(ws, 6.0, -3.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_NEAR(res.lambda, 2.0, 1e-12);
}

TEST(BreakpointSolver, TiedBreakpoints) {
  BreakpointWorkspace ws;
  ws.Assign({{-2.0, 1.0}, {-2.0, 1.0}, {-2.0, 1.0}});
  // All activate at lambda = 2; total 6 requires 3 (lambda - 2) = 6.
  const auto res = SolveMarket(ws, 6.0, 0.0);
  EXPECT_NEAR(res.lambda, 4.0, 1e-12);
  EXPECT_EQ(res.active_count, 3u);
}

TEST(BreakpointSolver, OpCountsPopulated) {
  BreakpointWorkspace ws;
  Rng rng(5);
  std::vector<Arc> arcs(300);
  for (auto& a : arcs) a = {rng.Uniform(-5, 5), rng.Uniform(0.1, 2.0)};
  ws.Assign(arcs);
  const auto res = SolveMarket(ws, 100.0, 0.0);
  EXPECT_EQ(res.ops.breakpoints, 300u);
  EXPECT_GT(res.ops.comparisons, 300u);  // at least the sort
  EXPECT_GT(res.ops.flops, 300u);
}

TEST(BreakpointSolver, InsertionVsHeapsortIdentical) {
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(200);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.05, 3.0)};
    BreakpointWorkspace w1, w2;
    w1.Assign(arcs);
    w2.Assign(arcs);
    const double u = rng.Uniform(0.0, 50.0);
    const double v = rng.Bernoulli(0.5) ? 0.0 : -rng.Uniform(0.01, 2.0);
    const auto r1 = SolveMarket(w1, u, v, ColdSort::kInsertion);
    const auto r2 = SolveMarket(w2, u, v, ColdSort::kHeapsort);
    EXPECT_NEAR(r1.lambda, r2.lambda, 1e-10);
    EXPECT_EQ(r1.active_count, r2.active_count);
  }
}

// Property sweep: solver's lambda satisfies the clearing equation and
// matches bisection, across sizes and target kinds.
class BreakpointProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool, int>> {};

TEST_P(BreakpointProperty, ClearsMarketExactly) {
  const auto [n, elastic, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + n);
  std::vector<Arc> arcs(n);
  for (auto& a : arcs)
    a = {rng.Uniform(-100.0, 100.0), rng.Uniform(0.01, 5.0)};
  BreakpointWorkspace ws;
  ws.Assign(arcs);
  const double u = rng.Uniform(0.0, 200.0);
  const double v = elastic ? -rng.Uniform(0.01, 3.0) : 0.0;

  const auto res = SolveMarket(ws, u, v);
  ASSERT_TRUE(res.feasible);
  const double supply = EvaluateSupply(arcs, res.lambda);
  const double target = u + v * res.lambda;
  const double scale = std::max({1.0, std::abs(supply), std::abs(target)});
  EXPECT_LT(std::abs(supply - target) / scale, 1e-10);

  // Active count consistent with the allocations.
  std::size_t active = 0;
  for (const auto& a : arcs)
    if (a.p + a.q * res.lambda > 1e-12) ++active;
  EXPECT_LE(active, res.active_count);
  EXPECT_GE(active + 2, res.active_count);  // ties may sit at zero

  // Agreement with bisection (bisection itself is ~1e-12 accurate here).
  if (supply > 1e-9 || v < 0.0) {
    const double ref = Bisect(arcs, u, v);
    EXPECT_NEAR(EvaluateSupply(arcs, ref) - (u + v * ref), 0.0, 1e-6);
    // lambda may differ on flat segments; compare cleared quantities.
    EXPECT_NEAR(EvaluateSupply(arcs, res.lambda), EvaluateSupply(arcs, ref),
                1e-6 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BreakpointProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 10, 50, 129,
                                                      500),
                       ::testing::Bool(), ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Cold-sort equivalence and the persisted-order repair path. Ties are broken
// by original arc index in every sort (one total order), so the multipliers
// must agree BIT-FOR-BIT, not just to tolerance.

TEST(SortPolicies, AllPoliciesBitIdenticalIncludingTies) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(300);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) {
      a = {rng.Uniform(-10, 10), rng.Uniform(0.05, 3.0)};
      // Force frequent exact breakpoint ties: quantize some breakpoints by
      // snapping p to a multiple of q.
      if (rng.Bernoulli(0.5)) a.p = -std::round(-a.p / a.q) * a.q;
    }
    BreakpointWorkspace wi, wh, wr;
    wi.Assign(arcs);
    wh.Assign(arcs);
    wr.Assign(arcs);
    const double u = rng.Uniform(0.0, 50.0);
    const double v = rng.Bernoulli(0.5) ? 0.0 : -rng.Uniform(0.01, 2.0);

    MarketOrder order;
    const auto ri = SolveMarket(wi, u, v, ColdSort::kInsertion);
    const auto rh = SolveMarket(wh, u, v, ColdSort::kHeapsort);
    // Twice with the same order: establish, then repair — or, where few
    // arcs clear, clear on the prefix both times.
    auto rr = SolveMarket(wr, u, v, &order);
    EXPECT_FALSE(rr.order_reused);
    rr = SolveMarket(wr, u, v, &order);
    EXPECT_NE(rr.order_reused, rr.prefix);

    EXPECT_EQ(ri.lambda, rh.lambda);  // exact: same total order
    EXPECT_EQ(ri.lambda, rr.lambda);
    EXPECT_EQ(ri.active_count, rh.active_count);
    EXPECT_EQ(ri.active_count, rr.active_count);
    EXPECT_EQ(ri.feasible, rr.feasible);

    // Identical allocations, elementwise exact.
    for (std::size_t j = 0; j < n; ++j) {
      const auto& a = arcs[j];
      const double xi = std::max(0.0, a.p + a.q * ri.lambda);
      const double xr = std::max(0.0, a.p + a.q * rr.lambda);
      EXPECT_EQ(xi, xr);
    }
  }
}

TEST(SortPolicies, SingleArcMarketAllPolicies) {
  BreakpointWorkspace ws;
  ws.Assign({{2.0, 0.5}});
  MarketOrder order;
  int reused = 0;
  for (const auto& res :
       {SolveMarket(ws, 5.0, 0.0), SolveMarket(ws, 5.0, 0.0, &order),
        SolveMarket(ws, 5.0, 0.0, &order),
        SolveMarket(ws, 5.0, 0.0, ColdSort::kInsertion),
        SolveMarket(ws, 5.0, 0.0, ColdSort::kHeapsort)}) {
    EXPECT_TRUE(res.feasible);
    EXPECT_EQ(res.lambda, 6.0);
    EXPECT_EQ(res.active_count, 1u);
    reused += res.order_reused;
  }
  EXPECT_EQ(reused, 1);  // only the second solve with the order repairs
}

TEST(SortPolicies, NoOrderColdSortsByThreshold) {
  // Without an order the solve is the cold sort kInsertionThreshold picks:
  // straight insertion at or below it (the forced insertion's comparison
  // count), the radix sort above, which charges kRadixSortOpsPerKey per key
  // whatever the keys. The sweep then adds one comparison per activated
  // segment (v = 0), and the multiplier is heapsort's. A total of 20 leaves
  // few arcs active, so those markets clear on the prefix for fewer
  // comparisons than the forced insertion's; a total of 1e6 activates
  // every arc, so the market sorts every key.
  Rng rng(12);
  for (std::size_t n : {kInsertionThreshold / 2, kInsertionThreshold,
                        kInsertionThreshold + 1, 2 * kInsertionThreshold}) {
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) a = {rng.Uniform(-5, 5), rng.Uniform(0.1, 2.0)};
    for (double u : {20.0, 1e6}) {
      BreakpointWorkspace w1, w2, w3;
      w1.Assign(arcs);
      w2.Assign(arcs);
      w3.Assign(arcs);
      const auto cold = SolveMarket(w1, u, 0.0);
      const auto insertion = SolveMarket(w2, u, 0.0, ColdSort::kInsertion);
      const auto heap = SolveMarket(w3, u, 0.0, ColdSort::kHeapsort);
      EXPECT_EQ(cold.lambda, heap.lambda) << n;
      EXPECT_EQ(cold.active_count, heap.active_count) << n;
      EXPECT_FALSE(cold.order_reused) << n;
      EXPECT_EQ(cold.prefix, u == 20.0) << n;
      if (cold.prefix) {
        EXPECT_LT(cold.ops.comparisons, insertion.ops.comparisons) << n;
      } else if (n <= kInsertionThreshold) {
        EXPECT_EQ(cold.ops.comparisons, insertion.ops.comparisons) << n;
      } else {
        EXPECT_EQ(cold.ops.comparisons,
                  kRadixSortOpsPerKey * n + cold.active_count)
            << n;
      }
    }
  }
}

TEST(SortPolicies, RepairOfUnchangedMarketCostsNoInversions) {
  BreakpointWorkspace ws;
  Rng rng(13);
  std::vector<Arc> arcs(400);
  for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.1, 2.0)};
  ws.Assign(arcs);
  // A total of 50 leaves few of the 400 arcs active: both solves clear on
  // the prefix and store no order. A total of 5000 activates more than n/4,
  // so the order is established and repaired.
  for (double u : {50.0, 5000.0}) {
    SCOPED_TRACE(u);
    MarketOrder order;
    const auto first = SolveMarket(ws, u, 0.0, &order);
    EXPECT_EQ(first.ops.inversions, 0u);  // established, not repaired
    const auto second = SolveMarket(ws, u, 0.0, &order);
    EXPECT_EQ(second.ops.inversions, 0u);  // already sorted: pure verify pass
    EXPECT_EQ(second.lambda, first.lambda);
    if (u == 50.0) {
      EXPECT_TRUE(first.prefix);
      EXPECT_TRUE(second.prefix);
      EXPECT_FALSE(second.order_reused);
      EXPECT_TRUE(order.perm.empty());
      continue;
    }
    EXPECT_FALSE(first.prefix);
    EXPECT_GT(4 * second.active_count, arcs.size());
    EXPECT_TRUE(second.order_reused);
    // The repair pass of an in-order array is one comparison per adjacent
    // pair — far below the cold sort's charge.
    EXPECT_LT(second.ops.comparisons, first.ops.comparisons);
  }
}

TEST(SortPolicies, RepairTracksDriftingMarket) {
  // Perturb arcs slightly between solves: the order stays nearly sorted, the
  // repair stays cheap, and the result still matches a from-scratch solve.
  // With a total of 30 few arcs are active and every solve clears on the
  // prefix; with 3000 more than n/4 are, and every solve repairs.
  Rng rng(14);
  std::vector<Arc> start(200);
  for (auto& a : start) a = {rng.Uniform(-10, 10), rng.Uniform(0.1, 2.0)};
  for (double u : {30.0, 3000.0}) {
    SCOPED_TRACE(u);
    std::vector<Arc> arcs = start;
    BreakpointWorkspace ws;
    ws.Assign(arcs);
    MarketOrder order;
    (void)SolveMarket(ws, u, 0.0, &order);
    int reused = 0, prefixed = 0;
    for (int sweep = 0; sweep < 10; ++sweep) {
      for (auto& a : arcs) a.p += rng.Uniform(-0.01, 0.01);
      ws.Assign(arcs);
      BreakpointWorkspace fresh;
      fresh.Assign(arcs);
      const auto repaired = SolveMarket(ws, u, 0.0, &order);
      const auto scratch = SolveMarket(fresh, u, 0.0, ColdSort::kHeapsort);
      reused += repaired.order_reused;
      prefixed += repaired.prefix;
      EXPECT_EQ(repaired.lambda, scratch.lambda);
    }
    EXPECT_EQ(reused, u == 30.0 ? 0 : 10);
    EXPECT_EQ(prefixed, u == 30.0 ? 10 : 0);
  }
}

TEST(SortPolicies, ChurnedRepairHandsOverToColdSort) {
  // A stored order that carries no information (here: exactly reversed)
  // would cost ~n^2/2 insertion shifts; above kInsertionThreshold the repair
  // gives up after n*log2(n) of them and cold-sorts the keys afresh. Same
  // bits either way, and the re-established order repairs cheaply on the
  // next solve.
  // A total of 300 leaves few arcs active, so that market clears on the
  // prefix, stores no order and has nothing to hand over; a total of 1e6
  // activates every arc, and the stored order is repaired.
  const std::size_t n = 1000;
  for (double u : {300.0, 1e6}) {
    SCOPED_TRACE(u);
    std::vector<Arc> arcs(n);
    for (std::size_t j = 0; j < n; ++j) arcs[j] = {double(j), 1.0};
    BreakpointWorkspace ws, fresh, heap_ws;
    ws.Assign(arcs);
    MarketOrder order;
    (void)SolveMarket(ws, u, 0.0, &order);
    for (auto& a : arcs) a.p = -a.p;  // reverses every breakpoint
    ws.Assign(arcs);
    fresh.Assign(arcs);
    heap_ws.Assign(arcs);
    const auto churned = SolveMarket(ws, u, 0.0, &order);
    const auto cold = SolveMarket(fresh, u, 0.0);
    const auto heap = SolveMarket(heap_ws, u, 0.0, ColdSort::kHeapsort);
    EXPECT_FALSE(churned.order_reused);
    EXPECT_EQ(churned.prefix, u == 300.0);
    EXPECT_EQ(churned.lambda, heap.lambda);
    EXPECT_EQ(churned.active_count, heap.active_count);
    const std::uint64_t budget = n * 10;  // n * bit_width(n)
    EXPECT_LE(churned.ops.inversions, budget + n);
    // The hand-over costs the abandoned repair plus one cold sort; finishing
    // the repair would have taken ~n^2/2 = 500k comparisons.
    EXPECT_LE(churned.ops.comparisons, cold.ops.comparisons + budget + 2 * n);
    const auto again = SolveMarket(ws, u, 0.0, &order);
    EXPECT_EQ(again.order_reused, u != 300.0);
    EXPECT_EQ(again.prefix, u == 300.0);
    EXPECT_EQ(again.ops.inversions, 0u);
    EXPECT_EQ(again.lambda, heap.lambda);
  }
}

TEST(SortPolicies, ArcCountChangeInvalidatesPersistedOrder) {
  std::vector<Arc> arcs = {{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}};
  BreakpointWorkspace ws;
  ws.Assign(arcs);
  MarketOrder order;
  (void)SolveMarket(ws, 5.0, 0.0, &order);
  EXPECT_EQ(order.perm.size(), 3u);
  arcs.push_back({0.5, 2.0});
  ws.Assign(arcs);
  const auto res = SolveMarket(ws, 5.0, 0.0, &order);
  EXPECT_FALSE(res.order_reused);  // stale perm ignored, then re-established
  EXPECT_EQ(order.perm.size(), 4u);
  const auto again = SolveMarket(ws, 5.0, 0.0, &order);
  EXPECT_TRUE(again.order_reused);
}

TEST(SortPolicies, BoxSolveAgreesAcrossPoliciesAndReuses) {
  Rng rng(15);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(100);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.05, 3.0)};
    BreakpointWorkspace wh, wr;
    wh.Assign(arcs);
    wr.Assign(arcs);
    const double u = rng.Uniform(1.0, 50.0);
    const double v = -rng.Uniform(0.01, 2.0);
    const double lo = rng.Uniform(0.0, 10.0);
    const double hi = lo + rng.Uniform(0.0, 20.0);
    MarketOrder order;
    const auto rh = SolveMarketBox(wh, u, v, lo, hi);
    (void)SolveMarketBox(wr, u, v, lo, hi, &order);
    const auto rr = SolveMarketBox(wr, u, v, lo, hi, &order);
    EXPECT_EQ(rh.lambda, rr.lambda);
    EXPECT_TRUE(rr.order_reused);
  }
}

TEST(BreakpointSolver, ComplexityMatchesNLogN) {
  // The paper charges each market ~ n log n comparisons; check the heapsort
  // path's comparison count is Theta(n log n).
  Rng rng(9);
  for (std::size_t n : {256u, 1024u, 4096u}) {
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.1, 1.0)};
    BreakpointWorkspace ws;
    ws.Assign(arcs);
    const auto res = SolveMarket(ws, 10.0, 0.0, ColdSort::kHeapsort);
    const double nlogn = static_cast<double>(n) * std::log2(double(n));
    EXPECT_GT(static_cast<double>(res.ops.comparisons), 0.5 * nlogn);
    EXPECT_LT(static_cast<double>(res.ops.comparisons), 4.0 * nlogn);
  }
}

// Bitwise double equality: distinguishes +0.0 from -0.0, which "==" does not.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(BreakpointSolver, WritebackEdgeSemantics) {
  // std::max(0.0, v) semantics: -0.0 products, exact-zero products, and NaN
  // all come out as +0.0 bitwise.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> p = {-0.0, 0.0, nan, -6.0, 4.0, -0.0, nan, 1.0};
  const std::vector<double> q(p.size(), 1.0);
  std::vector<double> x(p.size(), -1.0);
  Writeback(p, q, 0.0, x);
  const std::vector<double> want = {0.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 1.0};
  for (std::size_t j = 0; j < p.size(); ++j)
    EXPECT_TRUE(SameBits(x[j], want[j])) << j << ": " << x[j];
}

// ---------------------------------------------------------------------------
// Elementwise stages against their documented formulas, bit for bit. The
// kernel is compiled with -ffp-contract=off; the references route every
// product through a volatile so this file rounds it the same way whatever
// its own contraction setting.

double RoundedProduct(double a, double b) {
  volatile double prod = a * b;
  return prod;
}

// Lengths around the small-market and insertion-sort boundaries.
constexpr std::size_t kStageSizes[] = {0, 1, 3, 4, 5, 9, 64, 257};

struct StageRow {
  std::vector<double> centers, weights, mult;
};

StageRow RandomStageRow(std::size_t n, Rng& rng) {
  StageRow row;
  for (std::size_t j = 0; j < n; ++j) {
    row.centers.push_back(rng.Uniform(-50.0, 50.0));
    row.weights.push_back(rng.Uniform(0.01, 10.0));
    row.mult.push_back(rng.Uniform(-20.0, 20.0));
  }
  return row;
}

TEST(KernelStages, BuildArcsFollowsFormula) {
  Rng rng(0xE1E3);
  for (std::size_t n : kStageSizes) {
    const StageRow row = RandomStageRow(n, rng);
    std::vector<double> slopes(n), p(n), q(n);
    ArcSlopes(row.weights, slopes);
    BuildArcs(row.centers, slopes, row.mult, p, q);
    for (std::size_t j = 0; j < n; ++j) {
      const double qj = 1.0 / (2.0 * row.weights[j]);
      const double pj = row.centers[j] + RoundedProduct(row.mult[j], qj);
      EXPECT_TRUE(SameBits(slopes[j], qj)) << "n=" << n << " j=" << j;
      EXPECT_TRUE(SameBits(q[j], qj)) << "n=" << n << " j=" << j;
      EXPECT_TRUE(SameBits(p[j], pj)) << "n=" << n << " j=" << j;
    }
  }
}

TEST(KernelStages, BuildArcsGatherMatchesBuildArcsOnGatheredRow) {
  // The sparse sweep's gather must build exactly the arcs the dense sweep
  // builds from the same multipliers laid out contiguously.
  Rng rng(0x6A7E);
  for (std::size_t n : kStageSizes) {
    const StageRow row = RandomStageRow(n, rng);
    // Reversed, strided column indices into a longer multiplier row.
    std::vector<double> wide(2 * n + 1);
    for (double& w : wide) w = rng.Uniform(-20.0, 20.0);
    std::vector<std::size_t> cols(n);
    std::vector<double> gathered(n);
    for (std::size_t j = 0; j < n; ++j) {
      cols[j] = 2 * (n - 1 - j);
      gathered[j] = wide[cols[j]];
    }
    std::vector<double> slopes(n), pg(n), qg(n), pd(n), qd(n);
    ArcSlopes(row.weights, slopes);
    BuildArcsGather(row.centers, slopes, wide, cols, pg, qg);
    BuildArcs(row.centers, slopes, gathered, pd, qd);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(SameBits(pg[j], pd[j])) << "n=" << n << " j=" << j;
      EXPECT_TRUE(SameBits(qg[j], qd[j])) << "n=" << n << " j=" << j;
    }
  }
}

TEST(KernelStages, BreakpointsAreNegatedQuotients) {
  Rng rng(0xB4EA);
  for (std::size_t n : kStageSizes) {
    std::vector<double> p(n), q(n), b(n, -1.0);
    for (std::size_t j = 0; j < n; ++j) {
      p[j] = rng.Uniform(-100.0, 100.0);
      q[j] = rng.Uniform(0.01, 5.0);
    }
    if (n > 0) p[0] = 0.0;  // -0.0/q: the negation comes first
    Breakpoints(p, q, b);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_TRUE(SameBits(b[j], -p[j] / q[j])) << "n=" << n << " j=" << j;
    if (n > 0) {
      EXPECT_TRUE(std::signbit(b[0]));
    }
  }
}

TEST(KernelStages, WritebackClampsEveryArc) {
  // Random arcs at lambdas chosen on breakpoints (allocation exactly zero)
  // and between them; every allocation is max(0, p + q*lambda) to the bit.
  Rng rng(0x3B4C);
  for (std::size_t n : kStageSizes) {
    std::vector<double> p(n), q(n), x(n);
    for (std::size_t j = 0; j < n; ++j) {
      p[j] = rng.Uniform(-100.0, 100.0);
      q[j] = rng.Uniform(0.01, 5.0);
    }
    std::vector<double> lambdas = {0.0, -3.5, 12.25};
    if (n > 0) lambdas.push_back(-p[n / 2] / q[n / 2]);
    for (double lambda : lambdas) {
      Writeback(p, q, lambda, x);
      for (std::size_t j = 0; j < n; ++j) {
        const double want = std::max(0.0, p[j] + RoundedProduct(q[j], lambda));
        EXPECT_TRUE(SameBits(x[j], want))
            << "n=" << n << " j=" << j << " lambda=" << lambda;
      }
    }
  }
}

TEST(KernelStages, MarketDualShareMatchesDualTerms) {
  // The division-free share of an elastic row market against AddDualArc
  // over its arcs plus AddDualTotals of its own total, at the clearing
  // multiplier and at multipliers before every breakpoint, past every
  // breakpoint and on one.
  Rng rng(0xD0A1);
  for (std::size_t n : kStageSizes) {
    for (int rep = 0; rep < 8; ++rep) {
      const StageRow row = RandomStageRow(n, rng);
      const double s0[] = {rng.Uniform(0.0, 100.0)};
      const double alpha[] = {rng.Uniform(0.01, 10.0)};
      TotalsView totals;
      totals.mode = TotalsMode::kElastic;
      totals.s0 = s0;
      totals.alpha = alpha;
      std::vector<double> slopes(n);
      ArcSlopes(row.weights, slopes);
      BreakpointWorkspace ws;
      ws.Resize(n);
      BuildArcs(row.centers, slopes, row.mult, ws.p(), ws.q());
      const double u = s0[0], v = -1.0 / (2.0 * alpha[0]);
      const BreakpointResult res = SolveMarket(ws, u, v);
      const double constant = DualArcConstant(row.centers, slopes);
      std::vector<double> lambdas = {res.lambda};
      if (n > 0) {
        const auto b = ws.breakpoints();
        const auto [lo, hi] = std::minmax_element(b.begin(), b.end());
        lambdas.push_back(*lo - 1.0);  // no arc active
        lambdas.push_back(*hi + 1.0);  // every arc active
        lambdas.push_back(b[n / 2]);   // a tie: lambda == b_j
      }
      for (const double lambda : lambdas) {
        double want = 0.0;
        for (std::size_t j = 0; j < n; ++j)
          AddDualArc(want, row.centers[j], row.weights[j], lambda,
                     row.mult[j]);
        const double lam[] = {lambda};
        want = AddDualTotals(want, totals, lam, {});
        const double got = MarketDualShare(ws, constant, u, v, lambda);
        EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
            << "n=" << n << " lambda=" << lambda << " got=" << got
            << " want=" << want;
      }
    }
  }
}

// Market solves leave the caller's arrays alone and carry no state between
// markets through the reused workspace.

void ExpectSameSolve(const BreakpointResult& a, const BreakpointResult& b,
                     std::size_t n) {
  EXPECT_TRUE(SameBits(a.lambda, b.lambda)) << "n=" << n;
  EXPECT_EQ(a.active_count, b.active_count) << "n=" << n;
  EXPECT_EQ(a.feasible, b.feasible) << "n=" << n;
  EXPECT_EQ(a.ops.comparisons, b.ops.comparisons) << "n=" << n;
  EXPECT_EQ(a.ops.flops, b.ops.flops) << "n=" << n;
  EXPECT_EQ(a.ops.breakpoints, b.ops.breakpoints) << "n=" << n;
}

TEST(BreakpointSolver, ReusedWorkspaceMatchesFreshAcrossSizes) {
  // Sizes grow and shrink so stale sorted arrays and sentinels from a
  // larger market sit past the end of a smaller one.
  Rng rng(0x5E17);
  BreakpointWorkspace shared;
  for (std::size_t n : {300u, 5u, 129u, 1u, 0u, 64u, 2u, 1000u, 3u}) {
    std::vector<Arc> arcs(n);
    for (auto& a : arcs)
      a = {rng.Uniform(-100.0, 100.0), rng.Uniform(0.01, 5.0)};
    const double u = rng.Uniform(0.0, 200.0);
    for (double v : {0.0, -0.75}) {
      if (n == 0 && v == 0.0) continue;  // no arcs: only elastic clears
      shared.Assign(arcs);
      BreakpointWorkspace fresh;
      fresh.Assign(arcs);
      const auto rs = SolveMarket(shared, u, v);
      const auto rf = SolveMarket(fresh, u, v);
      ExpectSameSolve(rs, rf, n);
      if (n == 0) continue;  // a positive box is unreachable without arcs
      const double lo = 0.25 * u, hi = 0.5 * u;
      ExpectSameSolve(SolveMarketBox(shared, u, -0.75, lo, hi),
                      SolveMarketBox(fresh, u, -0.75, lo, hi), n);
    }
  }
}

TEST(BreakpointSolver, SolvesLeaveMarketArraysUnchanged) {
  Rng rng(0xA11C);
  std::vector<Arc> arcs(200);
  for (auto& a : arcs) {
    a = {rng.Uniform(-10.0, 10.0), rng.Uniform(0.05, 3.0)};
    if (rng.Bernoulli(0.3)) a.p = -std::round(-a.p / a.q) * a.q;  // ties
  }
  BreakpointWorkspace ws;
  ws.Assign(arcs);
  MarketOrder order;
  for (int pass = 0; pass < 3; ++pass) {
    // Cold sorts, then the order's first solve (cold) and its repairs.
    (void)SolveMarket(ws, 40.0, 0.0);
    (void)SolveMarket(ws, 40.0, 0.0, ColdSort::kInsertion);
    (void)SolveMarket(ws, 40.0, 0.0, ColdSort::kHeapsort);
    (void)SolveMarketBox(ws, 40.0, -1.0, 5.0, 30.0);
    (void)SolveMarket(ws, 40.0, 0.0, &order);
    (void)SolveMarketBox(ws, 40.0, -1.0, 5.0, 30.0, &order);
    ASSERT_EQ(ws.size(), arcs.size());
    for (std::size_t j = 0; j < arcs.size(); ++j) {
      EXPECT_TRUE(SameBits(ws.p()[j], arcs[j].p)) << j;
      EXPECT_TRUE(SameBits(ws.q()[j], arcs[j].q)) << j;
    }
  }
}

// ---------------------------------------------------------------------------
// The long-market sort (cold sorts above kInsertionThreshold and churned
// repairs that hand over) against the paper's heapsort, on keys that stress
// an order built from bit images rather than comparisons.

// Arcs whose breakpoints b = -p/q cover duplicates, -0.0 and +0.0 (equal
// under KeyLess), subnormals and, with `infinite`, +-inf.
std::vector<Arc> AwkwardArcs(std::size_t n, bool infinite, Rng& rng) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<Arc> arcs(n);
  for (std::size_t j = 0; j < n; ++j) {
    Arc& a = arcs[j];
    a = {rng.Uniform(-10, 10), rng.Uniform(0.05, 3.0)};
    switch (rng.NextIndex(infinite ? 9 : 7)) {
      case 0:
        if (j > 0) a = arcs[rng.NextIndex(j)];  // duplicate breakpoint
        break;
      case 1: a.p = 0.0; break;                 // b = -0.0
      case 2: a.p = -0.0; break;                // b = +0.0
      case 3:  // b = +subnormal
        a = {-tiny * double(1 + rng.NextIndex(4)), 1.0};
        break;
      case 4:  // b = -subnormal
        a = {tiny * double(1 + rng.NextIndex(4)), 1.0};
        break;
      case 5:  // b = the smallest normal
        a = {-std::numeric_limits<double>::min(), 1.0};
        break;
      case 7: a = {-1e300, 1e-300}; break;      // b = +inf
      case 8: a = {1e300, 1e-300}; break;       // b = -inf
      default: break;
    }
  }
  return arcs;
}

// The one total order: breakpoint value, ties by arc index.
std::vector<std::uint32_t> ReferencePerm(const std::vector<Arc>& arcs) {
  std::vector<std::uint32_t> perm(arcs.size());
  std::vector<double> b(arcs.size());
  for (std::size_t j = 0; j < arcs.size(); ++j) {
    perm[j] = static_cast<std::uint32_t>(j);
    b[j] = -arcs[j].p / arcs[j].q;
  }
  std::sort(perm.begin(), perm.end(), [&b](std::uint32_t x, std::uint32_t y) {
    return b[x] < b[y] || (b[x] == b[y] && x < y);
  });
  return perm;
}

TEST(SortPolicies, LongMarketSortMatchesHeapsort) {
  Rng rng(16);
  for (std::size_t n : {129u, 205u, 1000u, 4096u}) {
    for (bool infinite : {false, true}) {
      for (double v : {0.0, -0.5}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " inf=" << infinite << " v=" << v);
        const auto arcs = AwkwardArcs(n, infinite, rng);
        const auto want = ReferencePerm(arcs);
        const double u = 0.5 * double(n);
        BreakpointWorkspace wc, wh;
        wc.Assign(arcs);
        wh.Assign(arcs);
        // A history above n/4 activity sends each solve below to the full
        // sort, which this test is about; few of these arcs are active.
        MarketOrder order;
        order.active = static_cast<std::uint32_t>(n);
        const auto cold = SolveMarket(wc, u, v, &order);
        const auto heap = SolveMarket(wh, u, v, ColdSort::kHeapsort);
        EXPECT_TRUE(SameBits(cold.lambda, heap.lambda));
        EXPECT_EQ(cold.active_count, heap.active_count);
        EXPECT_EQ(order.perm, want);

        // A reversed stored order overruns the repair budget and hands over.
        std::reverse(order.perm.begin(), order.perm.end());
        order.active = static_cast<std::uint32_t>(n);
        const auto churned = SolveMarket(wc, u, v, &order);
        EXPECT_FALSE(churned.order_reused);
        EXPECT_TRUE(SameBits(churned.lambda, heap.lambda));
        EXPECT_EQ(churned.active_count, heap.active_count);
        EXPECT_EQ(order.perm, want);
      }
    }
  }
}

TEST(BreakpointSolver, NaNBreakpointStaysInBounds) {
  // A NaN breakpoint (hostile arc data) is outside KeyLess's total order.
  // Every sort and repair must stay in bounds — the sanitizer CI job runs
  // this — and the solve returns or reports the breakdown as InternalError.
  Rng rng(17);
  for (std::size_t n : {5u, 129u, 1000u}) {
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.05, 3.0)};
    arcs[n / 2].p = std::numeric_limits<double>::quiet_NaN();
    arcs[n / 3].p = -std::numeric_limits<double>::quiet_NaN();
    BreakpointWorkspace ws;
    ws.Assign(arcs);
    MarketOrder order;
    const auto solve = [&](auto&&... args) {
      try {
        (void)SolveMarket(ws, 0.5 * double(n), args...);
      } catch (const InternalError&) {
      }
    };
    solve(0.0);
    solve(0.0, ColdSort::kInsertion);
    solve(0.0, ColdSort::kHeapsort);
    solve(-0.5, &order);  // cold, then the stored order
    ASSERT_EQ(order.perm.size(), n);
    solve(-0.5, &order);  // repair
    std::reverse(order.perm.begin(), order.perm.end());
    solve(-0.5, &order);  // hand-over
    std::vector<std::uint32_t> sorted = order.perm;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(sorted[j], j);
  }
}


// ---------------------------------------------------------------------------
// The order repair's insertion sort leaves a key already in place where it
// is, and the sweep reads the sorted market through the keys, with a +inf
// edge after the last one. Both must do exactly what plain straight
// insertion and a gathered, sentinel-terminated sweep did.

using detail::SortKey;

struct InsertionCounts {
  std::uint64_t comparisons = 0;
  std::uint64_t shifts = 0;
  bool complete = true;
};

// Plain straight insertion (paper Section 5.1.1) under the same budget
// rule: every key is lifted and stored back, in place or not.
InsertionCounts ReferenceInsertion(std::vector<SortKey>& v,
                                   std::uint64_t max_shifts) {
  InsertionCounts s;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (s.shifts > max_shifts) {
      s.complete = false;
      break;
    }
    const SortKey key = v[i];
    std::size_t j = i;
    while (j > 0) {
      ++s.comparisons;
      const SortKey& left = v[j - 1];
      if (!(key.b < left.b || (key.b == left.b && key.idx < left.idx)))
        break;
      v[j] = left;
      ++s.shifts;
      --j;
    }
    v[j] = key;
  }
  return s;
}

std::vector<SortKey> KeysOf(const std::vector<double>& b) {
  std::vector<SortKey> keys(b.size());
  for (std::size_t j = 0; j < b.size(); ++j)
    keys[j] = {b[j], static_cast<std::uint32_t>(j)};
  return keys;
}

std::vector<SortKey> Shuffled(std::vector<SortKey> keys, Rng& rng) {
  for (std::size_t j = keys.size(); j > 1; --j)
    std::swap(keys[j - 1], keys[rng.NextIndex(j)]);
  return keys;
}

void ExpectSameAsStraightInsertion(std::vector<SortKey> keys,
                                   std::uint64_t max_shifts,
                                   bool expect_complete) {
  std::vector<SortKey> want = keys;
  const InsertionCounts ref = ReferenceInsertion(want, max_shifts);
  const detail::InsertionStats got = detail::InsertionSort(keys, max_shifts);
  EXPECT_EQ(got.comparisons, ref.comparisons);
  EXPECT_EQ(got.shifts, ref.shifts);
  EXPECT_EQ(got.complete, ref.complete);
  EXPECT_EQ(got.complete, expect_complete);
  ASSERT_EQ(keys.size(), want.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    EXPECT_EQ(keys[k].idx, want[k].idx) << "k=" << k;
    EXPECT_TRUE(SameBits(keys[k].b, want[k].b)) << "k=" << k;
  }
}

TEST(InsertionRepair, SkipMatchesStraightInsertion) {
  Rng rng(0x1A5E);
  const std::uint64_t unlimited = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t n : {0u, 1u, 2u, 17u, 128u, 300u}) {
    SCOPED_TRACE(n);
    std::vector<double> b(n);
    for (double& x : b) x = rng.Uniform(-10.0, 10.0);
    std::vector<double> sorted = b;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<double> reversed(sorted.rbegin(), sorted.rend());
    ExpectSameAsStraightInsertion(KeysOf(sorted), unlimited, true);
    ExpectSameAsStraightInsertion(KeysOf(reversed), unlimited, true);
    ExpectSameAsStraightInsertion(KeysOf(b), unlimited, true);
    // All tied: the arc index alone orders the keys.
    ExpectSameAsStraightInsertion(
        Shuffled(KeysOf(std::vector<double>(n, 1.5)), rng), unlimited, true);
    // -0.0 and +0.0 tie under KeyLess, so the arc index orders them too.
    std::vector<double> zeros(n);
    for (double& z : zeros) z = rng.Bernoulli(0.5) ? -0.0 : 0.0;
    ExpectSameAsStraightInsertion(Shuffled(KeysOf(zeros), rng), unlimited,
                                  true);
  }
}

TEST(InsertionRepair, BudgetStopMatchesStraightInsertion) {
  // Reversed 60 keys: the last key starts with 1 + ... + 58 = 1711 shifts
  // behind it, so any smaller budget stops the repair part-way, and the
  // partial permutation must be plain straight insertion's.
  std::vector<double> b(60);
  for (std::size_t j = 0; j < b.size(); ++j) b[j] = double(b.size() - j);
  for (const auto& [budget, complete] :
       {std::pair{0u, false}, std::pair{1u, false}, std::pair{40u, false},
        std::pair{1710u, false}, std::pair{1711u, true}}) {
    SCOPED_TRACE(budget);
    ExpectSameAsStraightInsertion(KeysOf(b), budget, complete);
  }
}

TEST(SweepEdges, SingleArcAcceptsAtInfiniteEdge) {
  // n = 1: the only segment's right edge is the +inf after the last key.
  BreakpointWorkspace ws;
  ws.Assign({{2.0, 0.5}});
  for (double v : {0.0, -0.25}) {
    SCOPED_TRACE(v);
    const auto r = SolveMarket(ws, 5.0, v);
    EXPECT_EQ(r.active_count, 1u);
    EXPECT_TRUE(SameBits(r.lambda, (5.0 - 2.0) / (0.5 - v)));
  }
}

TEST(SweepEdges, EveryArcActiveAcceptsAtInfiniteEdge) {
  // A total far above the supply at the last breakpoint activates every
  // arc; the multiplier is the last segment's, with prefix sums taken in
  // the one total order, on a cold sort and on a repair.
  Rng rng(0x5EE9);
  for (std::size_t n : {2u, 17u, 128u, 300u}) {
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.05, 3.0)};
    const double u = 1e6;
    for (double v : {0.0, -0.5}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " v=" << v);
      double p_sum = 0.0, q_sum = 0.0;
      for (std::uint32_t j : ReferencePerm(arcs)) {
        p_sum += arcs[j].p;
        q_sum += arcs[j].q;
      }
      const double want = (u - p_sum) / (q_sum - v);
      BreakpointWorkspace ws;
      ws.Assign(arcs);
      MarketOrder order;
      for (int solve = 0; solve < 2; ++solve) {
        const auto r = SolveMarket(ws, u, v, &order);
        EXPECT_EQ(r.active_count, n);
        EXPECT_EQ(r.order_reused, solve == 1);
        EXPECT_TRUE(SameBits(r.lambda, want));
      }
    }
  }
}

TEST(SweepEdges, ElasticClearingAtOrBeforeFirstBreakpoint) {
  // Breakpoints 2 and 3. -u/v at or below 2 clears with every arc idle;
  // just above it the first segment accepts against the second breakpoint.
  BreakpointWorkspace ws;
  ws.Assign({{-6.0, 2.0}, {-2.0, 1.0}});
  auto r = SolveMarket(ws, 2.0, -1.0);
  EXPECT_EQ(r.active_count, 0u);
  EXPECT_TRUE(SameBits(r.lambda, 2.0));
  r = SolveMarket(ws, 1.0, -1.0);
  EXPECT_EQ(r.active_count, 0u);
  EXPECT_TRUE(SameBits(r.lambda, 1.0));
  r = SolveMarket(ws, 2.5, -1.0);
  EXPECT_EQ(r.active_count, 1u);
  EXPECT_TRUE(SameBits(r.lambda, (2.5 - -2.0) / (1.0 - -1.0)));
}

TEST(SweepEdges, ZeroTotalReturnsFirstBreakpoint) {
  // u = v = 0: every lambda up to the first breakpoint clears, and the
  // solver returns the first key's breakpoint, bit for bit: -3 here, and
  // -0.0 where -0.0 (arc 0) and +0.0 (arc 1) tie and arc 0 sorts first.
  BreakpointWorkspace ws;
  ws.Assign({{3.0, 1.0}, {-4.0, 2.0}, {5.0, 2.0}});
  MarketOrder order;
  for (int solve = 0; solve < 2; ++solve) {
    const auto r = SolveMarket(ws, 0.0, 0.0, &order);
    EXPECT_EQ(r.active_count, 0u);
    EXPECT_TRUE(SameBits(r.lambda, -3.0));
  }
  ws.Assign({{0.0, 1.0}, {-0.0, 1.0}});
  const auto r = SolveMarket(ws, 0.0, 0.0);
  EXPECT_EQ(r.active_count, 0u);
  EXPECT_TRUE(SameBits(r.lambda, -0.0));
  ws.Assign({{4.0, 2.0}});
  EXPECT_TRUE(SameBits(SolveMarket(ws, 0.0, 0.0).lambda, -2.0));
}

// ---------------------------------------------------------------------------
// The prefix clearing (docs/KERNELS.md, "Sort only the prefix the sweep
// reads"): a market of at least kPrefixMinArcs arcs bounds the crossing,
// sorts only the keys at or below the bound and sweeps them with the
// smallest left-out breakpoint as the edge after the last. Whatever the
// path, the clearing must be the forced straight insertion's, bit for bit.

// Arcs of a prefix fixture: breakpoints spread over [-50, 50], or, with
// `awkward`, AwkwardArcs' finite mix (duplicates, -0.0/+0.0, subnormals)
// with more ties from snapping breakpoints to integers.
std::vector<Arc> PrefixArcs(std::size_t n, bool awkward, Rng& rng) {
  if (awkward) {
    std::vector<Arc> arcs = AwkwardArcs(n, false, rng);
    for (Arc& a : arcs)
      if (rng.Bernoulli(0.3)) a.p = -std::round(-a.p / a.q) * a.q;
    return arcs;
  }
  std::vector<Arc> arcs(n);
  for (Arc& a : arcs) {
    a.q = rng.Uniform(0.05, 3.0);
    a.p = -rng.Uniform(-50.0, 50.0) * a.q;
  }
  return arcs;
}

// The total u that clears the market at a multiplier with `active` arcs
// active: midway between the active-th and the next sorted breakpoint
// (below the first for none, above the last for all), against response
// slope v.
double TotalFor(const std::vector<Arc>& arcs, std::size_t active, double v) {
  std::vector<double> b(arcs.size());
  for (std::size_t j = 0; j < arcs.size(); ++j) b[j] = -arcs[j].p / arcs[j].q;
  std::sort(b.begin(), b.end());
  const double lambda =
      active == 0 ? b.front() - 1.0
      : active == b.size() ? b.back() + 1.0
                           : 0.5 * (b[active - 1] + b[active]);
  return EvaluateSupply(arcs, lambda) - v * lambda;
}

void ExpectSameClearing(const BreakpointResult& got,
                        const BreakpointResult& want) {
  EXPECT_TRUE(SameBits(got.lambda, want.lambda))
      << got.lambda << " vs " << want.lambda;
  EXPECT_EQ(got.active_count, want.active_count);
  EXPECT_EQ(got.feasible, want.feasible);
}

TEST(PrefixClearing, MatchesForcedInsertionBitForBit) {
  Rng rng(0x9E1F);
  std::size_t cleared = 0, tried = 0;
  // 1000 arcs at n/4 activity keep more candidates than an insertion
  // sort's kInsertionThreshold, so that market sorts every key.
  for (std::size_t n : {1u, 31u, 32u, 120u, 127u, 128u, 129u, 500u, 1000u}) {
    for (bool awkward : {false, true}) {
      const auto arcs = PrefixArcs(n, awkward, rng);
      const std::size_t seven = std::max<std::size_t>(1, n * 7 / 100);
      for (std::size_t active :
           {std::size_t{0}, std::size_t{1}, seven, n / 4, n}) {
        if (active > n) continue;
        for (double v : {0.0, -0.4}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " awkward=" << awkward
                       << " active=" << active << " v=" << v);
          const double u = TotalFor(arcs, active, v);
          if (v == 0.0 && u < 0.0) continue;  // rounding below a zero total
          BreakpointWorkspace ws, ref_ws;
          ws.Assign(arcs);
          ref_ws.Assign(arcs);
          const auto want = SolveMarket(ref_ws, u, v, ColdSort::kInsertion);
          // Without an order, and twice with one (its first clearing, then
          // the order or activity it left).
          MarketOrder order;
          for (MarketOrder* o :
               {static_cast<MarketOrder*>(nullptr), &order, &order}) {
            const auto got = SolveMarket(ws, u, v, o);
            ExpectSameClearing(got, want);
            EXPECT_FALSE(got.prefix && got.order_reused);
            if (n < kPrefixMinArcs) {
              EXPECT_FALSE(got.prefix);
            }
            if (got.prefix) {
              EXPECT_LE(4 * got.active_count, n);
              EXPECT_LE(got.active_count, kInsertionThreshold);
            }
            cleared += got.prefix;
            ++tried;
          }
          // Bounds capped at sorted breakpoints around the crossing: the
          // prefix then stops short of it (a miss), at it, or past it.
          std::vector<double> b(n);
          for (std::size_t j = 0; j < n; ++j) b[j] = -arcs[j].p / arcs[j].q;
          std::sort(b.begin(), b.end());
          for (std::size_t k : {std::size_t{0}, active / 2, active, active + 1,
                                n - 1}) {
            const double cap = b[std::min(k, n - 1)];
            ExpectSameClearing(
                detail::SolveMarket(ws, u, v, nullptr, nullptr, cap), want);
          }
        }
      }
    }
  }
  // The fixtures exercise both paths.
  EXPECT_GT(cleared, 0u);
  EXPECT_LT(cleared, tried);
}

TEST(PrefixClearing, NoCandidatesClearBeforeTheFirstBreakpoint) {
  // -u/v at or below every breakpoint: with the bound capped there, no key
  // is a candidate and the market clears against the smallest left-out
  // breakpoint alone, with every arc idle; the same with -u/v exactly on
  // the first breakpoint (3 here, arc 1).
  Rng rng(0x9E20);
  std::vector<Arc> arcs(64);
  for (Arc& a : arcs) a = {-rng.Uniform(3.5, 40.0), 1.0};
  arcs[1] = {-3.0, 1.0};
  for (double u : {2.0, 3.0}) {
    SCOPED_TRACE(u);
    const double v = -1.0;
    BreakpointWorkspace ws, ref_ws;
    ws.Assign(arcs);
    ref_ws.Assign(arcs);
    const double lam = -u / v;
    const auto got = detail::SolveMarket(ws, u, v, nullptr, nullptr,
                                         std::nextafter(lam, -1e300));
    EXPECT_TRUE(got.prefix);
    EXPECT_EQ(got.active_count, 0u);
    ExpectSameClearing(got, SolveMarket(ref_ws, u, v, ColdSort::kInsertion));
  }
}

TEST(PrefixClearing, LoweredBoundMissesAndFallsBack) {
  // A bound capped below the crossing leaves active arcs out of the
  // candidates: the prefix sweep accepts nowhere, and the market sorts
  // every key (storing its order) to the same bits.
  Rng rng(0x9E21);
  for (std::size_t n : {32u, 120u, 500u}) {
    for (double v : {0.0, -0.4}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " v=" << v);
      const auto arcs = PrefixArcs(n, false, rng);
      const std::size_t active = std::max<std::size_t>(2, n * 7 / 100);
      const double u = TotalFor(arcs, active, v);
      std::vector<double> b(n);
      for (std::size_t j = 0; j < n; ++j) b[j] = -arcs[j].p / arcs[j].q;
      std::sort(b.begin(), b.end());
      BreakpointWorkspace ws, ref_ws;
      ws.Assign(arcs);
      ref_ws.Assign(arcs);
      const auto want = SolveMarket(ref_ws, u, v, ColdSort::kInsertion);
      ASSERT_EQ(want.active_count, active);
      MarketOrder order;
      const auto missed = detail::SolveMarket(ws, u, v, &order, nullptr,
                                              0.5 * (b[0] + b[1]));
      EXPECT_FALSE(missed.prefix);
      EXPECT_EQ(order.perm.size(), n);
      EXPECT_EQ(order.active, active);
      ExpectSameClearing(missed, want);
      // Uncapped, the same market clears on the prefix.
      const auto free = SolveMarket(ws, u, v);
      EXPECT_TRUE(free.prefix);
      ExpectSameClearing(free, want);
    }
  }
}

TEST(PrefixClearing, ActivityGate) {
  // A stored order whose last clearing activated more than n/4 arcs, and a
  // seeded one that has not cleared yet, go straight to the repair; a
  // clearing at or below n/4 lets the next solve try the prefix.
  Rng rng(0x9E22);
  const std::size_t n = 120;
  const auto arcs = PrefixArcs(n, false, rng);
  const double u = TotalFor(arcs, 9, 0.0);
  BreakpointWorkspace ws;
  ws.Assign(arcs);
  MarketOrder order;
  const auto first = SolveMarket(ws, u, 0.0, &order);
  EXPECT_TRUE(first.prefix);
  EXPECT_TRUE(order.perm.empty());
  EXPECT_EQ(order.active, 9u);
  // A seed (a stored permutation, no clearing yet) is repaired.
  MarketOrder seeded;
  seeded.perm.resize(n);
  for (std::size_t j = 0; j < n; ++j)
    seeded.perm[j] = static_cast<std::uint32_t>(j);
  const auto seed = SolveMarket(ws, u, 0.0, &seeded);
  EXPECT_FALSE(seed.prefix);
  EXPECT_TRUE(seed.order_reused);
  EXPECT_EQ(seeded.active, 9u);
  // Its next solve, with the activity now known, clears on the prefix.
  EXPECT_TRUE(SolveMarket(ws, u, 0.0, &seeded).prefix);
  for (const std::uint32_t activity : {30u, 31u}) {
    seeded.active = activity;
    const auto r = SolveMarket(ws, u, 0.0, &seeded);
    EXPECT_EQ(r.prefix, activity == 30u) << activity;
    EXPECT_EQ(r.order_reused, activity == 31u) << activity;
    ExpectSameClearing(r, first);
  }
}

TEST(PrefixClearing, NonFiniteArcsBehaveAsTheFullSort) {
  // A NaN breakpoint is outside KeyLess's order, so that market sorts every
  // key; infinite ones are in it, and either path clears to the forced
  // insertion's bits. A solve that breaks down throws on both.
  Rng rng(0x9E23);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t n : {32u, 120u}) {
    for (double bad : {nan, -nan, inf, -inf}) {
      for (double v : {0.0, -0.4}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " p=" << bad << " v=" << v);
        auto arcs = PrefixArcs(n, false, rng);
        const double u = TotalFor(arcs, n * 7 / 100, v);
        arcs[n / 3].p = bad;
        BreakpointWorkspace ws, ref_ws;
        ws.Assign(arcs);
        ref_ws.Assign(arcs);
        const auto solve = [u, v](BreakpointWorkspace& w, auto... sort) {
          try {
            return std::optional(SolveMarket(w, u, v, sort...));
          } catch (const InternalError&) {
            return std::optional<BreakpointResult>();
          }
        };
        const auto got = solve(ws);
        const auto want = solve(ref_ws, ColdSort::kInsertion);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (!got) continue;
        ExpectSameClearing(*got, *want);
        if (std::isnan(bad)) {
          EXPECT_FALSE(got->prefix);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sea
