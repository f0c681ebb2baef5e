// Per-request solve session of the sea_serve daemon (docs/SERVING.md).
//
// One Handle() call is the whole lifecycle of an admitted request: cache
// lookup, the cheapest sound path to an answer, cache population, metrics,
// and the per-request wide event. The three paths, cheapest first:
//
//   * exact replay — the exact-tier fingerprint matched and the request
//     uses a residual criterion: the cached converged multipliers are
//     replayed through RecoverPrimal and RE-VERIFIED against the request's
//     own tolerance (core/stopping.hpp MaxRowResidual). On success the
//     reply is bit-identical to the solve that populated the cache — same
//     duals through the same closed form — at zero iterations. Replay is
//     refused (falls through to warm) when the verification fails (the
//     request wants a tighter epsilon than the cached solve met) or the
//     criterion is kXChange, whose measure is trajectory state that cannot
//     be re-checked from a final iterate.
//   * warm solve — a nearby-tier hit (or a refused replay): the cached mu
//     seeds DiagonalSea::SolveWarm. The result re-populates the cache
//     under the request's own keys.
//   * cold solve — no usable hit: DiagonalSea::Solve from mu = 0.
//
// Metrics (sea.serve.*, appended to docs/OBSERVABILITY.md's catalogue):
// requests/errors counters, hit/miss/shed counters, request_seconds and
// queue_seconds histograms, cache_size + queue_depth gauges. The wide
// event (obs/solve_log.hpp) carries tool="sea_serve", the cache tier, and
// the queue wait, one line per request.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/diagonal_sea.hpp"
#include "obs/solve_log.hpp"
#include "serve/protocol.hpp"
#include "serve/warm_cache.hpp"

namespace sea::obs {
class MetricsRegistry;
}  // namespace sea::obs

namespace sea::serve {

// Server-side solve policy a request cannot override upward.
struct ServiceLimits {
  double max_time_budget_seconds = 30.0;  // also the default budget
  std::uint64_t max_iterations = 200000;  // also the default cap
  // Optional hard-abort token threaded into every solve (the daemon trips
  // it on a second termination signal, turning the graceful drain into a
  // prompt one — in-flight solves return kCancelled at their next check).
  CancelToken* cancel = nullptr;
};

// Everything about one answered request. `result`/`solution` are
// meaningful whenever ok; on an exact replay, `result` is synthesized
// (converged, zero iterations, the re-verified residual).
struct ServeOutcome {
  bool ok = true;
  std::string error;  // set when !ok (engine threw)
  SolveStatus status = SolveStatus::kConverged;
  SeaResult result;
  Solution solution;
  std::string cache_tier;  // "cold", "exact", or "warm"
  std::uint64_t problem_fingerprint = 0;
  std::uint64_t x_fingerprint = 0;  // FNV-1a over the returned primal
  double queue_seconds = 0.0;
  double wall_seconds = 0.0;  // handling time, queue excluded
};

// A reply's x_fingerprint: FNV-1a 64 over a tag and the primal's cells, so
// a client can check bit-identity of two answers without the matrices.
std::uint64_t FingerprintPrimal(const DenseMatrix& x);

class SolveService {
 public:
  // All pointers optional (may be null) except `cache`.
  SolveService(WarmStartCache* cache, obs::MetricsRegistry* metrics,
               obs::SolveLogWriter* solve_log, ServiceLimits limits = {});

  // Solves one admitted, decoded request. `queue_seconds` is the admission
  // wait, recorded into metrics and the wide event. Never throws: engine
  // failures come back as !ok outcomes.
  ServeOutcome Handle(const SolveRequest& request, double queue_seconds);

  // Renders the reply JSON the daemon writes back (flat, schema 4). The
  // multiplier arrays are included when the request asked for them.
  static std::string RenderReplyJson(const ServeOutcome& outcome,
                                     bool want_multipliers);

  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  std::uint64_t errors() const {
    return errors_.load(std::memory_order_relaxed);
  }

 private:
  SeaOptions BuildOptions(const SolveRequest& request) const;
  void Record(const SolveRequest& request, const ServeOutcome& outcome);

  WarmStartCache* cache_;
  obs::MetricsRegistry* metrics_;
  obs::SolveLogWriter* solve_log_;
  ServiceLimits limits_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace sea::serve
