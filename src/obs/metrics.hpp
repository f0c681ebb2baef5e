// Low-overhead solver metrics: counters, gauges, and fixed-bucket
// histograms.
//
// The registry is the accumulation side of the telemetry layer
// (docs/OBSERVABILITY.md). Counters and histograms are sharded: each thread
// increments a cache-line-private slot chosen once per thread, so the hot
// path is an uncontended relaxed fetch_add; Snapshot() merges the shards.
// Solvers feed a registry through a MetricsObserver (below) on
// SeaOptions::observers — no observer, no cost, matching the repository
// rule that telemetry is pay-for-use only.
//
// Metric names are dotted lowercase paths ("sea.check.residual",
// "pool.region_wall_seconds"); the full catalogue lives in
// docs/OBSERVABILITY.md and is append-only across PRs.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_observer.hpp"

namespace sea {

struct PoolStats;

namespace obs {

class MarketAttribution;

namespace internal {

// One cache line per slot so concurrent writers never false-share.
struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

inline constexpr std::size_t kShards = 16;

// Stable per-thread shard index in [0, kShards).
std::size_t ThisThreadShard();

}  // namespace internal

// Monotone event count. Add() is safe from any thread.
class Counter {
 public:
  void Add(std::uint64_t delta = 1) {
    shards_[internal::ThisThreadShard()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_)
      total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  internal::PaddedU64 shards_[internal::kShards];
};

// Last-written scalar (phase seconds, convergence flag, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  // Bucket b counts observations v with v <= bounds[b]; the final bucket
  // (counts.size() == bounds.size() + 1) is the overflow bucket.
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total_count = 0;
  double sum = 0.0;
  double min = 0.0;  // defined only when total_count > 0
  double max = 0.0;
};

// Fixed-bucket distribution. Bounds are set at registration and never
// change (the export schema is append-only).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);
  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min;
    std::atomic<double> max;
    explicit Shard(std::size_t n_buckets);
  };

  std::vector<double> bounds_;  // sorted upper bounds
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Point-in-time copy of every registered metric, ready for export
// (obs/json_export.hpp). Entries appear in registration order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  // Lookup helpers for tests and reports; return 0 / empty on a miss.
  std::uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

// Owns the metrics. Get*() registers on first use and returns a reference
// that stays valid for the registry's lifetime, so call sites resolve a
// metric once and hold the reference across the hot loop.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // Bounds apply on first registration; later calls with the same name
  // return the existing histogram regardless of the bounds argument.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  MetricsSnapshot Snapshot() const;

  // Convenience: Snapshot() rendered in Prometheus text exposition format
  // (see the free WritePrometheus below).
  void WritePrometheus(std::ostream& os) const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::unique_ptr<T> metric;
  };

  mutable std::mutex mu_;
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
};

// The engine's metrics view (core/engine_observer.hpp): iteration, check,
// and op counters committed live at every check, the check histograms,
// recovery / checkpoint / solve counters, phase gauges, the attribution
// summary, and sea.general.*. Counts cover this process's work (a resumed
// solve baselines at its checkpoint). Per-solve deltas live here, so
// concurrent solves need one observer each; they may share the registry.
class MetricsObserver final : public EngineObserver {
 public:
  explicit MetricsObserver(MetricsRegistry& registry) : m_(registry) {}

  void OnBegin(const SeaOptions& opts) override;
  void OnResume(const CheckpointState& ck) override;
  void OnRecovery(std::size_t iteration, std::uint8_t rung,
                  std::uint64_t recovered) override;
  void OnCheckpointWrite(bool ok) override;
  void OnCheck(const IterationEvent& ev) override;
  void OnOuterStep(const OuterStepEvent& ev) override;
  void OnEnd(const SeaResult& result) override;

 private:
  void Commit(std::size_t iterations, std::size_t checks, const OpCounts& ops);

  MetricsRegistry& m_;
  // Resolved at OnBegin: Get*() takes the registry lock.
  Histogram *residual_ = nullptr, *interval_ = nullptr;
  Counter *iterations_ = nullptr, *checks_ = nullptr, *flops_ = nullptr,
          *comparisons_ = nullptr, *breakpoints_ = nullptr,
          *inversions_ = nullptr;
  const MarketAttribution* attribution_ = nullptr;
  // What this solve has committed so far.
  std::size_t iterations_done_ = 0, checks_done_ = 0;
  OpCounts ops_done_;
  double linearize_done_ = 0.0;  // general SEA, this outer solve
};

// Registers a ThreadPool utilization snapshot (parallel/thread_pool.hpp)
// under the "pool." prefix: region count, region wall seconds, per-worker
// busy seconds, and chunk-imbalance gauges.
void RecordPoolMetrics(MetricsRegistry& registry, const PoolStats& stats);

// Renders a snapshot in the Prometheus text exposition format (version
// 0.0.4) for scraping — the wire format the future sea_serve daemon
// exposes. Dotted metric names are sanitized (every character outside
// [a-zA-Z0-9_:] becomes '_', so "sea.check.residual" exports as
// "sea_check_residual"); counters gain the conventional "_total" suffix;
// histograms export as cumulative <name>_bucket{le="..."} series ending in
// le="+Inf", plus <name>_sum and <name>_count. Every family is preceded by
// its "# TYPE" line.
void WritePrometheus(std::ostream& os, const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace sea
