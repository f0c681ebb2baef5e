#include "baselines/rc_algorithm.hpp"

#include <algorithm>
#include <cmath>

#include "equilibration/equilibrator.hpp"
#include "obs/profiler.hpp"
#include "parallel/parallel_for.hpp"
#include "problems/feasibility.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace sea {

namespace {

// Shared state for one RC solve.
struct RcState {
  const GeneralProblem* problem = nullptr;
  const RcOptions* opts = nullptr;
  std::size_t m = 0, n = 0;

  Vector x;     // current iterate, row-major flat
  Vector grad;  // scratch gradient of F
  Vector lambda;  // row-constraint multipliers
  Vector mu;      // column-constraint multipliers

  DenseMatrix gamma_rm;   // diag(G) reshaped m x n
  DenseMatrix slopes_rm;  // its arc slopes 1/(2 G_kk), computed once
  DenseMatrix slopes_cm;  // and their transpose
  DenseMatrix centers;    // projection-step centers, phase-major layout
  DenseMatrix xs;         // phase-major allocations scratch
  Vector mult;            // per-market multipliers scratch (max(m, n))
  // Breakpoint orders persisted across every projection iteration of every
  // phase: the first sweep cold-sorts, later ones repair.
  SortOrderCache row_orders, col_orders;
  // One sweep slot per pool worker, shared by both phases.
  std::vector<SweepSlot> scratch;

  RcResult result;
};

// One phase of RC. The row phase (by_rows = true) runs the projection method
// to convergence on
//
//   min F(x) - sum_j mu_j (sum_i x_ij)   s.t.  sum_j x_ij = s0_i,  x >= 0,
//
// exactly the relaxed problem of SEA's Step 1 but with the *general*
// objective; each projection iteration diagonalizes F at the current iterate
// and the subproblem separates into per-row exact-equilibration markets (the
// mu_j relaxation enters as the market's cross multipliers). On return,
// st.lambda holds the phase's Lagrange multipliers — the market multipliers
// of the final projection iterate. The column phase is symmetric.
std::size_t RunPhase(RcState& st, bool by_rows, double projection_epsilon) {
  obs::ProfScope prof(by_rows ? "rc.row_phase" : "rc.col_phase");
  const std::size_t markets = by_rows ? st.m : st.n;
  const std::size_t arcs = by_rows ? st.n : st.m;
  const GeneralProblem& p = *st.problem;
  const Vector& cross = by_rows ? st.mu : st.lambda;
  Vector& own = by_rows ? st.lambda : st.mu;

  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = by_rows ? p.s0() : p.d0();

  SweepOptions sweep_opts;
  sweep_opts.pool = st.opts->pool;
  sweep_opts.scratch = st.scratch;
  sweep_opts.sort_cache = by_rows ? &st.row_orders : &st.col_orders;
  sweep_opts.profile_phase =
      by_rows ? "equilibrate.rows" : "equilibrate.cols";

  const DenseMatrix& slopes = by_rows ? st.slopes_rm : st.slopes_cm;
  st.centers = DenseMatrix(markets, arcs);
  st.xs = DenseMatrix(markets, arcs);
  st.mult.resize(markets);

  std::size_t iters = 0;
  for (std::size_t it = 1; it <= st.opts->max_projection_iterations; ++it) {
    ++iters;
    // Projection step: centers c_k = x_k - grad_k / (2 G_kk), written
    // directly in phase-major layout. The relaxation term is linear and is
    // carried by the markets' cross multipliers instead of the centers.
    {
      obs::ProfScope prof_lin("rc.linearize");
      p.GradientX(st.x, st.grad, st.opts->pool);
    }
    st.result.ops.flops +=
        2 * static_cast<std::uint64_t>(st.m * st.n) * (st.m * st.n);
    for (std::size_t i = 0; i < st.m; ++i) {
      for (std::size_t j = 0; j < st.n; ++j) {
        const std::size_t k = i * st.n + j;
        const double c = st.x[k] - st.grad[k] / (2.0 * st.gamma_rm(i, j));
        if (by_rows)
          st.centers(i, j) = c;
        else
          st.centers(j, i) = c;
      }
    }

    // Parallel equilibration of the phase's markets.
    st.result.ops +=
        EquilibrateSide(st.centers, slopes, cross, side,
                        {st.mult.data(), markets}, &st.xs, sweep_opts)
            .total_ops;

    // Serial projection-convergence verification (RC's extra serial stage,
    // absent from general SEA — cf. Figures 4 and 6).
    double change = 0.0;
    for (std::size_t a = 0; a < markets; ++a) {
      const auto xrow = st.xs.Row(a);
      for (std::size_t b = 0; b < arcs; ++b) {
        const std::size_t k = by_rows ? a * st.n + b : b * st.n + a;
        change = std::max(change, std::abs(xrow[b] - st.x[k]));
        st.x[k] = xrow[b];
      }
    }
    st.result.ops.flops += static_cast<std::uint64_t>(st.m) * st.n;
    if (change <= projection_epsilon) break;
  }
  std::copy(st.mult.begin(), st.mult.begin() + markets, own.begin());
  return iters;
}

}  // namespace

RcRun SolveRc(const GeneralProblem& problem, const RcOptions& opts) {
  obs::ProfScope prof_solve("baseline.rc.solve");
  problem.Validate();
  SEA_CHECK_MSG(problem.mode() == TotalsMode::kFixed,
                "RC handles the fixed-totals regime");
  SEA_CHECK(opts.epsilon > 0.0);

  Stopwatch wall;
  const double cpu0 = ProcessCpuSeconds();

  RcState st;
  st.problem = &problem;
  st.opts = &opts;
  st.m = problem.m();
  st.n = problem.n();
  st.lambda.assign(st.m, 0.0);
  st.mu.assign(st.n, 0.0);
  st.row_orders.Reset(st.m);
  st.col_orders.Reset(st.n);
  st.scratch.resize(WorkerCount(opts.pool));

  st.gamma_rm = DenseMatrix(st.m, st.n);
  for (std::size_t k = 0; k < st.m * st.n; ++k)
    st.gamma_rm.Flat()[k] = problem.G()(k, k);
  st.slopes_rm = ArcSlopes(st.gamma_rm);
  st.slopes_cm = st.slopes_rm.Transposed();

  // Feasible start: the rank-one transportation plan (paper Step 0).
  double total = 0.0;
  for (double v : problem.s0()) total += v;
  st.x.assign(st.m * st.n, 0.0);
  if (total > 0.0)
    for (std::size_t i = 0; i < st.m; ++i)
      for (std::size_t j = 0; j < st.n; ++j)
        st.x[i * st.n + j] = problem.s0()[i] * problem.d0()[j] / total;

  const double proj_eps = (opts.projection_epsilon > 0.0)
                              ? opts.projection_epsilon
                              : opts.epsilon / 10.0;

  RcRun run;
  for (std::size_t outer = 1; outer <= opts.max_outer_iterations; ++outer) {
    st.result.projection_iterations_per_phase.push_back(
        RunPhase(st, /*by_rows=*/true, proj_eps));
    st.result.projection_iterations_per_phase.push_back(
        RunPhase(st, /*by_rows=*/false, proj_eps));
    st.result.outer_iterations = outer;

    // Overall convergence: after the column phase the column totals hold to
    // projection accuracy; measure the row residual (serial stage).
    double max_rel = 0.0;
    for (std::size_t i = 0; i < st.m; ++i) {
      double rowsum = 0.0;
      for (std::size_t j = 0; j < st.n; ++j) rowsum += st.x[i * st.n + j];
      const double r = std::abs(rowsum - problem.s0()[i]) /
                       std::max(1.0, std::abs(problem.s0()[i]));
      max_rel = std::max(max_rel, r);
    }
    st.result.ops.flops += static_cast<std::uint64_t>(st.m) * st.n;
    st.result.final_residual = max_rel;
    if (max_rel <= opts.epsilon) {
      st.result.converged = true;
      break;
    }
  }

  run.solution.x = DenseMatrix(st.m, st.n);
  std::copy(st.x.begin(), st.x.end(), run.solution.x.Flat().begin());
  run.solution.s = problem.s0();
  run.solution.d = problem.d0();
  run.solution.lambda = st.lambda;
  run.solution.mu = st.mu;

  st.result.objective = problem.Objective(st.x, {}, {}, opts.pool);
  st.result.wall_seconds = wall.Seconds();
  st.result.cpu_seconds = ProcessCpuSeconds() - cpu0;
  run.result = std::move(st.result);
  return run;
}

}  // namespace sea
