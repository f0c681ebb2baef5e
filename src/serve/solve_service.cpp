#include "serve/solve_service.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/solve_status.hpp"
#include "core/stopping.hpp"
#include "obs/json_export.hpp"
#include "obs/metrics.hpp"
#include "problems/solution.hpp"
#include "problems/types.hpp"
#include "support/hash.hpp"
#include "support/rusage.hpp"

namespace sea::serve {
namespace {

std::string HexU64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

// Latency buckets spanning sub-millisecond replays to budget-bounded
// multi-second solves.
std::vector<double> LatencyBounds() {
  return {1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01,
          0.05, 0.1,  0.5,  1.0,  5.0,  10.0, 30.0};
}

}  // namespace

std::uint64_t FingerprintPrimal(const DenseMatrix& x) {
  support::Fnv1a h;
  h.MixU64('x');
  h.MixDoubles(x.Flat());
  return h.value();
}

SolveService::SolveService(WarmStartCache* cache,
                           obs::MetricsRegistry* metrics,
                           obs::SolveLogWriter* solve_log,
                           ServiceLimits limits)
    : cache_(cache),
      metrics_(metrics),
      solve_log_(solve_log),
      limits_(limits) {}

SeaOptions SolveService::BuildOptions(const SolveRequest& request) const {
  SeaOptions opts;
  opts.epsilon = request.epsilon;
  opts.criterion = request.criterion;
  opts.max_iterations =
      request.max_iterations == 0
          ? static_cast<std::size_t>(limits_.max_iterations)
          : static_cast<std::size_t>(std::min<std::uint64_t>(
                request.max_iterations, limits_.max_iterations));
  opts.time_budget_seconds =
      request.time_budget_seconds <= 0.0
          ? limits_.max_time_budget_seconds
          : std::min(request.time_budget_seconds,
                     limits_.max_time_budget_seconds);
  opts.cancel = limits_.cancel;
  return opts;
}

ServeOutcome SolveService::Handle(const SolveRequest& request,
                                  double queue_seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  ServeOutcome out;
  out.queue_seconds = queue_seconds;

  const DiagonalProblem& p = request.problem;
  const ProblemKeys keys = FingerprintProblemKeys(p);
  out.problem_fingerprint = keys.full;
  const auto hit = cache_->Lookup(keys.full, keys.structure);

  try {
    bool served = false;
    if (hit && hit->tier == WarmHit::Tier::kExact &&
        request.criterion != StopCriterion::kXChange) {
      // Exact replay: the byte-identical problem was solved before, so
      // pushing the cached duals through RecoverPrimal reproduces that
      // solve's answer bit for bit. Serve it only if the replayed iterate
      // passes THIS request's tolerance (the cache may hold a looser
      // solve); otherwise fall through to a warm solve from the same mu.
      Solution sol = RecoverPrimal(p, hit->entry.lambda, hit->entry.mu);
      const Vector rowsums = sol.x.RowSums();
      const double measure = MaxRowResidual(request.criterion, rowsums,
                                            p.totals(), sol.lambda, sol.mu);
      if (measure <= request.epsilon) {
        out.cache_tier = "exact";
        out.status = SolveStatus::kConverged;
        out.result.status = SolveStatus::kConverged;
        out.result.iterations = 0;
        out.result.checks_compared = 1;
        out.result.final_residual = measure;
        out.result.objective = p.Objective(sol.x, sol.s, sol.d);
        out.solution = std::move(sol);
        served = true;
      }
    }

    if (!served) {
      SeaOptions opts = BuildOptions(request);
      // Per request: the observer holds this solve's deltas.
      std::optional<obs::MetricsObserver> metrics_observer;
      if (metrics_)
        opts.observers.push_back(&metrics_observer.emplace(*metrics_));
      DiagonalSea solver(p);
      DiagonalSeaRun run;
      if (hit) {
        out.cache_tier = "warm";
        run = solver.SolveWarm(opts, hit->entry.mu);
      } else {
        out.cache_tier = "cold";
        run = solver.Solve(opts);
      }
      out.status = run.result.status;
      out.result = std::move(run.result);
      out.solution = std::move(run.solution);
      if (out.result.converged()) {
        CachedMultipliers entry;
        entry.lambda = out.solution.lambda;
        entry.mu = out.solution.mu;
        entry.criterion = request.criterion;
        entry.epsilon = request.epsilon;
        entry.iterations = out.result.iterations;
        cache_->Insert(keys.full, keys.structure, std::move(entry));
      }
    }
    out.x_fingerprint = FingerprintPrimal(out.solution.x);
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }

  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  Record(request, out);
  return out;
}

void SolveService::Record(const SolveRequest& request,
                          const ServeOutcome& out) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!out.ok) errors_.fetch_add(1, std::memory_order_relaxed);

  if (metrics_) {
    metrics_->GetCounter("sea.serve.requests").Add();
    if (!out.ok) metrics_->GetCounter("sea.serve.errors").Add();
    if (out.cache_tier == "exact")
      metrics_->GetCounter("sea.serve.replay_exact").Add();
    else if (out.cache_tier == "warm")
      metrics_->GetCounter("sea.serve.warm_solves").Add();
    else
      metrics_->GetCounter("sea.serve.cold_solves").Add();
    metrics_->GetHistogram("sea.serve.request_seconds", LatencyBounds())
        .Observe(out.wall_seconds);
    metrics_->GetHistogram("sea.serve.queue_seconds", LatencyBounds())
        .Observe(out.queue_seconds);
    const WarmCacheStats stats = cache_->Stats();
    metrics_->GetGauge("sea.serve.cache_size")
        .Set(static_cast<double>(stats.size));
    metrics_->GetCounter("sea.serve.iterations")
        .Add(out.result.iterations);
  }

  if (solve_log_) {
    obs::SolveWideEvent ev;
    ev.tool = "sea_serve";
    ev.mode = ToString(request.problem.mode());
    ev.rows = request.problem.m();
    ev.cols = request.problem.n();
    ev.epsilon = request.epsilon;
    ev.criterion = ToString(request.criterion);
    ev.threads = 1;
    {
      support::Fnv1a fp;
      fp.MixU64('s');  // serving-plane option space
      fp.MixU64(static_cast<std::uint64_t>(request.criterion));
      fp.MixDoubles({&request.epsilon, 1});
      fp.MixU64(request.max_iterations);
      fp.MixDoubles({&request.time_budget_seconds, 1});
      ev.options_fingerprint = fp.value();
    }
    ev.status = out.ok ? ToString(out.status) : "error";
    ev.exit_code = out.ok ? ExitCodeFor(out.status) : 3;
    obs::SetResultFields(ev, out.result);
    ev.wall_seconds = out.wall_seconds;
    ev.peak_rss_bytes = support::PeakRssBytes();
    ev.cache_tier = out.cache_tier;
    ev.queue_seconds = out.queue_seconds;
    ev.error = out.error;
    solve_log_->Emit(ev);
  }
}

std::string SolveService::RenderReplyJson(const ServeOutcome& out,
                                          bool want_multipliers) {
  obs::JsonObj o;
  o.Field("schema", obs::kTelemetrySchemaVersion)
      .Field("tool", "sea_serve")
      .Field("ok", out.ok)
      .Field("status", out.ok ? ToString(out.status) : "error")
      .Field("exit_code", out.ok ? ExitCodeFor(out.status) : 3)
      .Field("cache_tier", out.cache_tier)
      .Field("iterations",
             static_cast<std::uint64_t>(out.result.iterations))
      .Field("final_residual", out.result.final_residual)
      .Field("objective", out.result.objective)
      .Field("wall_seconds", out.wall_seconds)
      .Field("queue_seconds", out.queue_seconds)
      .Field("problem_fingerprint", HexU64(out.problem_fingerprint))
      .Field("x_fingerprint", HexU64(out.x_fingerprint));
  if (!out.ok) o.Field("error", out.error);
  if (want_multipliers && out.ok) {
    obs::JsonArr lambda;
    for (double v : out.solution.lambda) lambda.Add(v);
    obs::JsonArr mu;
    for (double v : out.solution.mu) mu.Add(v);
    o.Raw("lambda", lambda.Str()).Raw("mu", mu.Str());
  }
  return o.Str();
}

}  // namespace sea::serve
