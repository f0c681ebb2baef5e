// Tests for the interval-totals extension (Harrigan & Buchanan 1984; the
// generalization the paper's Section 2 cites for I/O estimation): totals are
// estimated as in the elastic regime but must lie in per-row/column boxes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "baselines/reference_solvers.hpp"
#include "core/diagonal_sea.hpp"
#include "equilibration/breakpoint_solver.hpp"
#include "problems/feasibility.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix Fill(std::size_t m, std::size_t n, Rng& rng, double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

SeaOptions TightOptions() {
  SeaOptions o;
  o.epsilon = 1e-9;
  o.criterion = StopCriterion::kResidualAbs;
  o.max_iterations = 400000;
  return o;
}

// ---------------------------------------------------------------------------
// Kernel level: SolveMarketBox.

TEST(SolveMarketBox, MiddlePieceMatchesElastic) {
  // With a wide box the clamp never binds: identical to SolveMarket.
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(60);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs)
      a = {rng.Uniform(-20.0, 20.0), rng.Uniform(0.05, 3.0)};
    BreakpointWorkspace w1, w2;
    w1.Assign(arcs);
    w2.Assign(arcs);
    const double u = rng.Uniform(0.0, 50.0);
    const double v = -rng.Uniform(0.05, 2.0);
    const auto plain = SolveMarket(w1, u, v);
    const auto boxed = SolveMarketBox(w2, u, v, 0.0, 1e9);
    EXPECT_NEAR(boxed.lambda, plain.lambda,
                1e-9 * std::max(1.0, std::abs(plain.lambda)));
  }
}

TEST(SolveMarketBox, OneSortClearsEachPieceLikeAFreshSolve) {
  // The box solve sorts (or repairs) once and clears up to three response
  // pieces against that one sorted array: each piece's multiplier has the
  // bits of a fresh SolveMarket against it, and the breakpoints are computed
  // once. Markets straddle kInsertionThreshold and the boxes put the
  // crossing on every piece.
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(300);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs)
      a = {rng.Uniform(-20.0, 20.0), rng.Uniform(0.05, 3.0)};
    const double u = rng.Uniform(0.0, 10.0 * double(n));
    const double v = -rng.Uniform(0.05, 2.0);
    const double lo = rng.Uniform(0.0, 5.0 * double(n));
    const double hi = lo + rng.Uniform(0.0, 5.0 * double(n));
    BreakpointWorkspace fresh;
    fresh.Assign(arcs);
    const auto upper = SolveMarket(fresh, hi, 0.0);
    const auto middle = SolveMarket(fresh, u, v);
    const auto lower = SolveMarket(fresh, lo, 0.0);
    const double enter_mid = (hi - u) / v, leave_mid = (lo - u) / v;
    BreakpointResult expect = lower;
    if (upper.lambda <= enter_mid) {
      expect = upper;
    } else if (middle.lambda >= enter_mid && middle.lambda <= leave_mid) {
      expect = middle;
    } else if (expect.lambda < leave_mid) {
      expect.lambda = leave_mid;
    }
    // Cold without an order, cold storing one, and repairing it.
    BreakpointWorkspace ws;
    ws.Assign(arcs);
    MarketOrder order;
    MarketOrder* const orders[] = {nullptr, &order, &order};
    for (MarketOrder* o : orders) {
      const auto box = SolveMarketBox(ws, u, v, lo, hi, o);
      EXPECT_EQ(std::memcmp(&box.lambda, &expect.lambda, sizeof(double)), 0)
          << trial;
      EXPECT_EQ(box.active_count, expect.active_count) << trial;
      EXPECT_EQ(box.ops.breakpoints, n) << trial;
    }
    EXPECT_TRUE(SolveMarketBox(ws, u, v, lo, hi, &order).order_reused);
  }
}

TEST(SolveMarketBox, DegenerateBoxMatchesFixedTotal) {
  // lo == hi pins the total: identical to a fixed-total clear.
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(40);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs)
      a = {rng.Uniform(-20.0, 20.0), rng.Uniform(0.05, 3.0)};
    BreakpointWorkspace w1, w2;
    w1.Assign(arcs);
    w2.Assign(arcs);
    const double total = rng.Uniform(0.5, 40.0);
    const auto fixed = SolveMarket(w1, total, 0.0);
    const auto boxed =
        SolveMarketBox(w2, rng.Uniform(0.0, 80.0), -1.0, total, total);
    EXPECT_NEAR(EvaluateSupply(arcs, boxed.lambda), total,
                1e-8 * std::max(1.0, total));
    EXPECT_NEAR(EvaluateSupply(arcs, fixed.lambda), total,
                1e-8 * std::max(1.0, total));
  }
}

TEST(SolveMarketBox, ClearsClampedResponse) {
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(50);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs)
      a = {rng.Uniform(-20.0, 20.0), rng.Uniform(0.05, 3.0)};
    BreakpointWorkspace ws;
    ws.Assign(arcs);
    const double u = rng.Uniform(0.0, 60.0);
    const double v = -rng.Uniform(0.05, 2.0);
    double lo = rng.Uniform(0.0, 20.0);
    double hi = lo + rng.Uniform(0.0, 20.0);
    const auto res = SolveMarketBox(ws, u, v, lo, hi);
    const double supply = EvaluateSupply(arcs, res.lambda);
    const double response =
        std::clamp(u + v * res.lambda, lo, hi);
    EXPECT_NEAR(supply, response, 1e-8 * std::max(1.0, supply))
        << "trial " << trial;
  }
}

TEST(SolveMarketBox, RejectsBadArguments) {
  BreakpointWorkspace ws;
  ws.Assign({{1.0, 1.0}});
  EXPECT_THROW(SolveMarketBox(ws, 1.0, 0.0, 0.0, 1.0), InvalidArgument);
  EXPECT_THROW(SolveMarketBox(ws, 1.0, -1.0, 2.0, 1.0), InvalidArgument);
  EXPECT_THROW(SolveMarketBox(ws, 1.0, -1.0, -1.0, 1.0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Problem and solver level.

DiagonalProblem RandomInterval(std::size_t m, std::size_t n, Rng& rng,
                               double box_width) {
  DenseMatrix x0 = Fill(m, n, rng, 0.1, 30.0);
  DenseMatrix gamma = Fill(m, n, rng, 0.05, 2.0);
  Vector s0 = x0.RowSums();
  Vector d0 = x0.ColSums();
  Vector s_lo(m), s_hi(m), d_lo(n), d_hi(n);
  for (std::size_t i = 0; i < m; ++i) s0[i] *= rng.Uniform(0.8, 1.4);
  for (std::size_t j = 0; j < n; ++j) d0[j] *= rng.Uniform(0.8, 1.4);
  // Keep the instance feasible under tight boxes: the interval around the
  // row totals and the one around the column totals must both admit the same
  // grand total, so rescale d0 to sum to sum(s0) before boxing.
  double ssum = 0.0, dsum = 0.0;
  for (double v : s0) ssum += v;
  for (double v : d0) dsum += v;
  for (double& v : d0) v *= ssum / dsum;
  for (std::size_t i = 0; i < m; ++i) {
    s_lo[i] = std::max(0.0, s0[i] * (1.0 - box_width));
    s_hi[i] = s0[i] * (1.0 + box_width);
  }
  for (std::size_t j = 0; j < n; ++j) {
    d_lo[j] = std::max(0.0, d0[j] * (1.0 - box_width));
    d_hi[j] = d0[j] * (1.0 + box_width);
  }
  return DiagonalProblem::MakeInterval(
      std::move(x0), std::move(gamma), std::move(s0),
      rng.UniformVector(m, 0.1, 2.0), std::move(s_lo), std::move(s_hi),
      std::move(d0), rng.UniformVector(n, 0.1, 2.0), std::move(d_lo),
      std::move(d_hi));
}

TEST(IntervalProblem, ValidatesBoxes) {
  Rng rng(4);
  DenseMatrix x0 = Fill(2, 2, rng, 1.0, 2.0);
  DenseMatrix gamma(2, 2, 1.0);
  EXPECT_THROW(DiagonalProblem::MakeInterval(
                   x0, gamma, {1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}, {1.0, 1.0},
                   {1.0, 1.0}, {1.0, 1.0}, {0.0, 0.0}, {5.0, 5.0}),
               InvalidArgument);  // s_lo > s_hi
}

TEST(IntervalSea, WideBoxMatchesElastic) {
  Rng rng(5);
  DenseMatrix x0 = Fill(6, 8, rng, 0.1, 20.0);
  DenseMatrix gamma = Fill(6, 8, rng, 0.1, 1.5);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.2;
  for (double& v : d0) v *= 0.9;
  Vector alpha = rng.UniformVector(6, 0.2, 1.0);
  Vector beta = rng.UniformVector(8, 0.2, 1.0);

  const auto elastic =
      DiagonalProblem::MakeElastic(x0, gamma, s0, alpha, d0, beta);
  const auto interval = DiagonalProblem::MakeInterval(
      x0, gamma, s0, alpha, Vector(6, 0.0), Vector(6, 1e12), d0, beta,
      Vector(8, 0.0), Vector(8, 1e12));

  const auto run_e = SolveDiagonal(elastic, TightOptions());
  const auto run_i = SolveDiagonal(interval, TightOptions());
  ASSERT_TRUE(run_e.result.converged());
  ASSERT_TRUE(run_i.result.converged());
  EXPECT_LT(run_e.solution.x.MaxAbsDiff(run_i.solution.x), 1e-6);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(run_e.solution.s[i], run_i.solution.s[i], 1e-6);
}

TEST(IntervalSea, DegenerateBoxMatchesFixed) {
  Rng rng(6);
  DenseMatrix x0 = Fill(5, 5, rng, 0.5, 10.0);
  DenseMatrix gamma = Fill(5, 5, rng, 0.2, 1.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.3;
  for (double& v : d0) v *= 1.3;
  // Rescale so sums match exactly (fixed-mode feasibility).
  double ssum = 0.0, dsum = 0.0;
  for (double v : s0) ssum += v;
  for (double v : d0) dsum += v;
  for (double& v : d0) v *= ssum / dsum;

  const auto fixed = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
  const auto interval = DiagonalProblem::MakeInterval(
      x0, gamma, s0, Vector(5, 1.0), s0, s0, d0, Vector(5, 1.0), d0, d0);

  const auto run_f = SolveDiagonal(fixed, TightOptions());
  const auto run_i = SolveDiagonal(interval, TightOptions());
  ASSERT_TRUE(run_f.result.converged());
  ASSERT_TRUE(run_i.result.converged());
  EXPECT_LT(run_f.solution.x.MaxAbsDiff(run_i.solution.x), 1e-5);
}

TEST(IntervalSea, SolutionSatisfiesKktAndBoxes) {
  Rng rng(7);
  for (double width : {0.02, 0.10, 0.50}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto p = RandomInterval(7, 9, rng, width);
      const auto run = SolveDiagonal(p, TightOptions());
      ASSERT_TRUE(run.result.converged()) << width << " " << trial;
      const auto rep = CheckFeasibility(p, run.solution);
      EXPECT_LT(rep.MaxAbs(), 1e-6);
      EXPECT_GE(rep.min_x, 0.0);
      EXPECT_LT(KktStationarityError(p, run.solution), 1e-6)
          << "width " << width;
      for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_GE(run.solution.s[i], p.s_lo()[i] - 1e-9);
        EXPECT_LE(run.solution.s[i], p.s_hi()[i] + 1e-9);
      }
      for (std::size_t j = 0; j < 9; ++j) {
        EXPECT_GE(run.solution.d[j], p.d_lo()[j] - 1e-9);
        EXPECT_LE(run.solution.d[j], p.d_hi()[j] + 1e-9);
      }
    }
  }
}

TEST(IntervalSea, AgreesWithDualGradientReference) {
  Rng rng(8);
  const auto p = RandomInterval(5, 6, rng, 0.05);  // tight boxes that bind
  const auto run = SolveDiagonal(p, TightOptions());
  ASSERT_TRUE(run.result.converged());
  const auto ref = SolveDualGradient(p, {.grad_tol = 1e-8,
                                         .max_iterations = 400000});
  ASSERT_TRUE(ref.converged);
  EXPECT_LT(run.solution.x.MaxAbsDiff(ref.solution.x), 1e-5);
  const double obj_ref =
      p.Objective(ref.solution.x, ref.solution.s, ref.solution.d);
  EXPECT_NEAR(run.result.objective, obj_ref,
              1e-6 * std::max(1.0, std::abs(obj_ref)));
}

TEST(IntervalSea, TighterBoxesRaiseObjective) {
  Rng rng(9);
  DenseMatrix x0 = Fill(6, 6, rng, 0.5, 10.0);
  DenseMatrix gamma(6, 6, 1.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  // Targets far from the base sums; both sides scaled so the boxes stay
  // mutually feasible even when tight.
  for (double& v : s0) v *= 1.5;
  for (double& v : d0) v *= 1.5;
  double ssum = 0.0, dsum = 0.0;
  for (double v : s0) ssum += v;
  for (double v : d0) dsum += v;
  for (double& v : d0) v *= ssum / dsum;
  Vector alpha(6, 1.0), beta(6, 1.0);

  auto solve_width = [&](double w) {
    Vector s_lo(6), s_hi(6), d_lo(6), d_hi(6);
    for (std::size_t i = 0; i < 6; ++i) {
      s_lo[i] = std::max(0.0, s0[i] * (1.0 - w));
      s_hi[i] = s0[i] * (1.0 + w);
      d_lo[i] = std::max(0.0, d0[i] * (1.0 - w));
      d_hi[i] = d0[i] * (1.0 + w);
    }
    const auto p = DiagonalProblem::MakeInterval(x0, gamma, s0, alpha, s_lo,
                                                 s_hi, d0, beta, d_lo, d_hi);
    const auto run = SolveDiagonal(p, TightOptions());
    EXPECT_TRUE(run.result.converged());
    return run.result.objective;
  };
  // A tighter feasible set cannot yield a lower optimum.
  const double wide = solve_width(1.0);
  const double mid = solve_width(0.2);
  const double tight = solve_width(0.02);
  EXPECT_LE(wide, mid + 1e-6 * std::max(1.0, mid));
  EXPECT_LE(mid, tight + 1e-6 * std::max(1.0, tight));
}

TEST(IntervalSea, EnumerativeOracleRejectsInterval) {
  Rng rng(10);
  const auto p = RandomInterval(2, 2, rng, 0.1);
  EXPECT_THROW(SolveEnumerativeKkt(p), InvalidArgument);
}

}  // namespace
}  // namespace sea
