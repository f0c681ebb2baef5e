#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "obs/json_export.hpp"
#include "parallel/thread_pool.hpp"
#include "support/check.hpp"

namespace sea::obs {

namespace internal {

std::size_t ThisThreadShard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace internal

// ---------------------------------------------------------------- Histogram

Histogram::Shard::Shard(std::size_t n_buckets)
    : buckets(n_buckets),
      min(std::numeric_limits<double>::infinity()),
      max(-std::numeric_limits<double>::infinity()) {
  // Value-initialization of atomics predates P0883 on some standard
  // libraries; zero the buckets explicitly.
  for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  SEA_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bucket bounds must be sorted");
  shards_.reserve(internal::kShards);
  for (std::size_t s = 0; s < internal::kShards; ++s)
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
}

void Histogram::Observe(double v) {
  Shard& shard = *shards_[internal::ThisThreadShard()];
  const std::size_t b =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  shard.buckets[b].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
  double cur = shard.min.load(std::memory_order_relaxed);
  while (v < cur &&
         !shard.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = shard.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !shard.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < snap.counts.size(); ++b)
      snap.counts[b] += shard->buckets[b].load(std::memory_order_relaxed);
    snap.total_count += shard->count.load(std::memory_order_relaxed);
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    lo = std::min(lo, shard->min.load(std::memory_order_relaxed));
    hi = std::max(hi, shard->max.load(std::memory_order_relaxed));
  }
  if (snap.total_count > 0) {
    snap.min = lo;
    snap.max = hi;
  }
  return snap;
}

// ----------------------------------------------------------------- Snapshot

std::uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

double MetricsSnapshot::GaugeValue(const std::string& name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return 0.0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& [n, h] : histograms)
    if (n == name) return &h;
  return nullptr;
}

// ----------------------------------------------------------------- Registry

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard lk(mu_);
  for (auto& e : counters_)
    if (e.name == name) return *e.metric;
  counters_.push_back({name, std::make_unique<Counter>()});
  return *counters_.back().metric;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard lk(mu_);
  for (auto& e : gauges_)
    if (e.name == name) return *e.metric;
  gauges_.push_back({name, std::make_unique<Gauge>()});
  return *gauges_.back().metric;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard lk(mu_);
  for (auto& e : histograms_)
    if (e.name == name) return *e.metric;
  histograms_.push_back(
      {name, std::make_unique<Histogram>(std::move(upper_bounds))});
  return *histograms_.back().metric;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard lk(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& e : counters_)
    snap.counters.emplace_back(e.name, e.metric->Value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& e : gauges_)
    snap.gauges.emplace_back(e.name, e.metric->Value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& e : histograms_)
    snap.histograms.emplace_back(e.name, e.metric->Snapshot());
  return snap;
}

// --------------------------------------------------------------- prometheus

namespace {

// Metric-name charset per the exposition format: [a-zA-Z_:][a-zA-Z0-9_:]*.
// Dots (our canonical separator) and anything else map to '_'; a leading
// digit gets a '_' prefix and an empty name becomes "_" — a scraper must
// never see a name its parser rejects, whatever a caller registered.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

// Prometheus renders values as Go floats: unlike JSON it HAS NaN/Inf
// spellings, so this differs from JsonNumber only on non-finite values.
std::string PromNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return JsonNumber(v);
}

// HELP text escaping per the text format: backslash and line feed. Label
// VALUES additionally escape the double quote that delimits them.
std::string PromEscape(const std::string& s, bool label_value) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else if (c == '"' && label_value)
      out += "\\\"";
    else
      out += c;
  }
  return out;
}

// Catalogue of HELP strings for the metric families the solver emits
// (core/iteration_engine.cpp, RecordPoolMetrics). Unknown names — tests,
// embedders — simply get no HELP line; the format makes it optional.
const char* PromHelp(const std::string& name) {
  struct Entry {
    const char* name;
    const char* help;
  };
  static constexpr Entry kCatalogue[] = {
      {"sea.iterations", "Completed row+column iteration pairs."},
      {"sea.checks_compared",
       "Convergence checks whose stopping measure was defined."},
      {"sea.solves", "Solver invocations recorded into this registry."},
      {"sea.solves_converged", "Solver invocations that converged."},
      {"sea.ops.flops", "Floating-point operations in market solves."},
      {"sea.ops.comparisons", "Breakpoint comparisons in market solves."},
      {"sea.ops.breakpoints", "Breakpoints generated across market solves."},
      {"sea.ops.inversions",
       "Adjacent-pair inversions repaired by order reuse."},
      {"sea.sweep.order_reuses",
       "Market solves answered by repairing a persisted breakpoint order."},
      {"sea.recovery.rescues",
       "Guardrail trips rescued by the recovery ladder."},
      {"sea.recovery.active_rung",
       "Rung of the most recent recovery (0 = none)."},
      {"sea.checkpoint.resumes", "Solves resumed from a checkpoint."},
      {"sea.check.residual", "Stopping-measure values at convergence checks."},
      {"sea.check.interval_iters",
       "Iterations elapsed between consecutive checks."},
      {"sea.row_phase_seconds", "Wall seconds in parallel row phases."},
      {"sea.col_phase_seconds", "Wall seconds in parallel column phases."},
      {"sea.check_phase_seconds",
       "Wall seconds in serial convergence checks."},
      {"sea.wall_seconds", "Wall seconds across recorded solves."},
      {"sea.cpu_seconds", "Process CPU seconds across recorded solves."},
      {"sea.final_residual", "Stopping measure of the latest solve."},
      {"sea.converged", "Whether the latest solve converged (0/1)."},
      {"sea.market.tracked", "Markets tracked by attribution."},
      {"sea.market.checks", "Attribution check rows recorded."},
      {"sea.market.solves", "Per-market solves recorded by attribution."},
      {"sea.market.churn", "Breakpoint-order churn recorded by attribution."},
      {"pool.threads", "Worker threads in the parallel pool."},
      {"pool.regions", "ParallelFor regions executed."},
      {"pool.region_wall_seconds", "Wall seconds inside ParallelFor regions."},
      {"pool.chunk_imbalance.max",
       "Max relative chunk imbalance across regions."},
      {"pool.chunk_imbalance.mean",
       "Mean relative chunk imbalance across regions."},
      {"pool.chunks", "Work chunks executed by the pool."},
      {"pool.claims", "Dynamic chunk claims by pool workers."},
      {"pool.busy_seconds_total", "Busy seconds summed over pool workers."},
      {"pool.utilization",
       "Busy worker seconds over region wall x threads."},
  };
  for (const auto& e : kCatalogue)
    if (name == e.name) return e.help;
  return nullptr;
}

void WriteHeader(std::ostream& os, const std::string& raw_name,
                 const std::string& prom_name, const char* type) {
  if (const char* help = PromHelp(raw_name))
    os << "# HELP " << prom_name << ' '
       << PromEscape(help, /*label_value=*/false) << '\n';
  os << "# TYPE " << prom_name << ' ' << type << '\n';
}

}  // namespace

void WritePrometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string n = PromName(name) + "_total";
    WriteHeader(os, name, n, "counter");
    os << n << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string n = PromName(name);
    WriteHeader(os, name, n, "gauge");
    os << n << ' ' << PromNumber(value) << '\n';
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string n = PromName(name);
    WriteHeader(os, name, n, "histogram");
    // Buckets are cumulative in the exposition format; ours are disjoint.
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cum += h.counts[b];
      os << n << "_bucket{le=\""
         << PromEscape(PromNumber(h.bounds[b]), /*label_value=*/true)
         << "\"} " << cum << '\n';
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.total_count << '\n';
    os << n << "_sum " << PromNumber(h.sum) << '\n';
    os << n << "_count " << h.total_count << '\n';
  }
}

void MetricsRegistry::WritePrometheus(std::ostream& os) const {
  obs::WritePrometheus(os, Snapshot());
}

// --------------------------------------------------------- pool utilization

void RecordPoolMetrics(MetricsRegistry& registry, const PoolStats& stats) {
  registry.GetGauge("pool.threads").Set(static_cast<double>(stats.threads));
  registry.GetCounter("pool.regions").Add(stats.regions);
  registry.GetGauge("pool.region_wall_seconds").Add(stats.region_wall_seconds);
  registry.GetGauge("pool.chunk_imbalance.max").Set(stats.max_imbalance);
  registry.GetGauge("pool.chunk_imbalance.mean").Set(stats.mean_imbalance);
  registry.GetCounter("pool.chunks").Add(stats.chunks);
  registry.GetCounter("pool.claims").Add(stats.claims);
  double busy = 0.0;
  for (std::size_t w = 0; w < stats.worker_busy_seconds.size(); ++w) {
    registry.GetGauge("pool.worker." + std::to_string(w) + ".busy_seconds")
        .Add(stats.worker_busy_seconds[w]);
    busy += stats.worker_busy_seconds[w];
  }
  registry.GetGauge("pool.busy_seconds_total").Add(busy);
  // Utilization of the pool across its ParallelFor regions: busy worker
  // seconds over (region wall x threads) — the measured counterpart to the
  // schedule simulator's efficiency column (parallel/speedup_model.hpp).
  const double capacity =
      stats.region_wall_seconds * static_cast<double>(stats.threads);
  registry.GetGauge("pool.utilization")
      .Set(capacity > 0.0 ? busy / capacity : 0.0);
}

// ----------------------------------------------------------------- quantile

double HistogramQuantile(const HistogramSnapshot& h, double q) {
  if (h.total_count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation (1-based); walk buckets cumulatively.
  const double rank = q * static_cast<double>(h.total_count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const std::uint64_t c = h.counts[b];
    if (c == 0) continue;
    const double cum_after = static_cast<double>(cum + c);
    if (rank <= cum_after || b + 1 == h.counts.size()) {
      // Bucket edges: the first populated edge is min, the overflow bucket
      // tops out at max; interpolate by the rank's position in the bucket.
      const double lo = (b == 0) ? h.min : h.bounds[b - 1];
      const double hi = (b < h.bounds.size()) ? h.bounds[b] : h.max;
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(c);
      const double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::clamp(v, h.min, h.max);
    }
    cum += c;
  }
  return h.max;
}

}  // namespace sea::obs
