#include "core/general_sea.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/engine_observer.hpp"
#include "linalg/kernels.hpp"
#include "obs/profiler.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace sea {

void FeasibleStart(const GeneralProblem& problem, Vector& x, Vector& s,
                   Vector& d) {
  const std::size_t m = problem.m(), n = problem.n();
  x.assign(m * n, 0.0);
  if (problem.mode() == TotalsMode::kFixed) {
    s = problem.s0();
    d = problem.d0();
    double total = 0.0;
    for (double v : s) total += v;
    if (total > 0.0) {
      for (std::size_t i = 0; i < m; ++i) {
        const double si = s[i] / total;
        for (std::size_t j = 0; j < n; ++j) x[i * n + j] = si * d[j];
      }
    }
  } else {
    s.assign(m, 0.0);
    d.assign(n, 0.0);
    if (problem.mode() == TotalsMode::kSam) d = s;
  }
}

GeneralSeaRun SolveGeneral(const GeneralProblem& problem,
                           const GeneralSeaOptions& opts) {
  problem.Validate();
  SEA_CHECK(opts.outer_epsilon > 0.0);
  const std::size_t m = problem.m(), n = problem.n();
  const std::size_t mn = m * n;

  obs::ProfScope prof_solve("general.solve");
  Stopwatch wall;
  const double cpu0 = ProcessCpuSeconds();

  Vector x, s, d;
  FeasibleStart(problem, x, s, d);

  SeaOptions inner = opts.inner;
  if (opts.inner_epsilon > 0.0) inner.epsilon = opts.inner_epsilon;
  // Inner tolerance defaults to a decade tighter than the outer one: the
  // projection step only needs the subproblem solved to the accuracy at
  // which we measure the outer fixed point.
  if (opts.inner_epsilon == 0.0 && inner.epsilon > opts.outer_epsilon / 10.0)
    inner.epsilon = opts.outer_epsilon / 10.0;

  GeneralSeaResult result;
  GeneralSeaRun run;
  Vector mu_warm(n, 0.0);

  // One inner solver reused across outer iterations: every projection
  // subproblem has the same shape and mode, so ResetProblem swaps in the
  // refreshed centers while the engine-driven inner solves chain through
  // mu_warm (the warm-start path of DiagonalSea::SolveWarm).
  DiagonalProblem diag;
  std::optional<DiagonalSea> inner_solver;

  for (std::size_t t = 1; t <= opts.max_outer_iterations; ++t) {
    // Guardrail polls between projection steps. The first step always runs
    // (so the returned solution is populated); afterwards an expired budget
    // or cancelled token ends the outer loop, and each inner solve receives
    // only the remaining budget so it stops from inside as well.
    if (t > 1 && inner.cancel && inner.cancel->cancelled()) {
      result.status = SolveStatus::kCancelled;
      break;
    }
    if (opts.inner.time_budget_seconds > 0.0) {
      const double remaining = opts.inner.time_budget_seconds - wall.Seconds();
      if (t > 1 && remaining <= 0.0) {
        result.status = SolveStatus::kTimeBudgetExceeded;
        break;
      }
      // An already-expired budget on the first step still passes a sliver so
      // the inner engine terminates at its first check poll.
      inner.time_budget_seconds = std::max(remaining, 1e-9);
    }

    // ---- Projection step: refresh linear terms at the current iterate
    // (one dense matvec with G and, in the elastic regimes, A/B). This is a
    // parallelizable phase: G's rows partition across processors.
    Stopwatch lin_sw;
    {
      obs::ProfScope prof("general.linearize");
      diag = problem.Diagonalize(x, s, d, inner.pool);
    }
    result.linearization_seconds += lin_sw.Seconds();
    result.ops.flops += 2 * static_cast<std::uint64_t>(mn) * mn;

    // ---- Inner solve: diagonal SEA on the constructed subproblem, warm-
    // started from the previous outer iteration's column multipliers.
    if (inner_solver) {
      inner_solver->ResetProblem(diag);
    } else {
      inner_solver.emplace(diag);
    }
    DiagonalSeaRun inner_run = [&] {
      obs::ProfScope prof("general.inner_solve");
      return inner_solver->SolveWarm(inner, mu_warm);
    }();
    mu_warm = inner_run.solution.mu;
    result.total_inner_iterations += inner_run.result.iterations;
    result.ops += inner_run.result.ops;

    // ---- Convergence verification (single serial phase; paper Fig. 4).
    const auto xf = inner_run.solution.x.Flat();
    double change = 0.0;
    {
      obs::ProfScope prof("general.outer_check");
      for (std::size_t k = 0; k < mn; ++k)
        change = std::max(change, std::abs(xf[k] - x[k]));
    }
    result.ops.flops += mn;

    x.assign(xf.begin(), xf.end());
    s = inner_run.solution.s;
    d = inner_run.solution.d;
    run.solution = std::move(inner_run.solution);

    result.outer_iterations = t;
    result.final_outer_change = change;
    // An abnormal inner termination (cancellation, expired budget, numerical
    // breakdown, stall, infeasibility) propagates unchanged and outranks the
    // outer change test — a projection step the inner solver could not
    // actually solve says nothing about the outer fixed point. A plain inner
    // kMaxIterations keeps the historical change-based behavior.
    switch (inner_run.result.status) {
      case SolveStatus::kCancelled:
      case SolveStatus::kTimeBudgetExceeded:
      case SolveStatus::kNumericalBreakdown:
      case SolveStatus::kStalled:
      case SolveStatus::kInfeasible:
        result.status = inner_run.result.status;
        break;
      case SolveStatus::kConverged:
      case SolveStatus::kMaxIterations:
        if (change <= opts.outer_epsilon)
          result.status = SolveStatus::kConverged;
        break;
    }

    // One event per projection step; the inner solves streamed their own.
    OuterStepEvent ev;
    ev.outer_iteration = t;
    ev.change = change;
    ev.converged = result.converged();
    ev.inner_iterations = inner_run.result.iterations;
    ev.inner_iterations_total = result.total_inner_iterations;
    ev.linearize_seconds = result.linearization_seconds;
    for (EngineObserver* o : inner.observers) o->OnOuterStep(ev);

    if (result.status != SolveStatus::kMaxIterations) break;
  }

  result.objective = problem.Objective(x, s, d, inner.pool);
  result.wall_seconds = wall.Seconds();
  result.cpu_seconds = ProcessCpuSeconds() - cpu0;
  run.result = std::move(result);
  return run;
}

}  // namespace sea
