#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/options.hpp"
#include "core/result.hpp"
#include "obs/json_export.hpp"
#include "obs/market_stats.hpp"
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
  double busy = 0.0;
  for (std::size_t w = 0; w < stats.worker_busy_seconds.size(); ++w) {
    registry.GetGauge("pool.worker." + std::to_string(w) + ".busy_seconds")
        .Add(stats.worker_busy_seconds[w]);
    busy += stats.worker_busy_seconds[w];
  }
  registry.GetGauge("pool.busy_seconds_total").Add(busy);
  // Utilization of the pool across its ParallelFor regions: busy worker
  // seconds over (region wall x threads).
  const double capacity =
      stats.region_wall_seconds * static_cast<double>(stats.threads);
  registry.GetGauge("pool.utilization")
      .Set(capacity > 0.0 ? busy / capacity : 0.0);
}

// ---------------------------------------------------------- MetricsObserver

void MetricsObserver::OnBegin(const SeaOptions& opts) {
  // Decade buckets: the measure spans many orders of magnitude.
  residual_ = &m_.GetHistogram(
      "sea.check.residual",
      {1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6});
  interval_ = &m_.GetHistogram("sea.check.interval_iters",
                               {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  iterations_ = &m_.GetCounter("sea.iterations");
  checks_ = &m_.GetCounter("sea.checks_compared");
  flops_ = &m_.GetCounter("sea.ops.flops");
  comparisons_ = &m_.GetCounter("sea.ops.comparisons");
  breakpoints_ = &m_.GetCounter("sea.ops.breakpoints");
  inversions_ = &m_.GetCounter("sea.ops.inversions");
  attribution_ = opts.attribution;
  iterations_done_ = checks_done_ = 0;
  ops_done_ = OpCounts{};
}

void MetricsObserver::OnResume(const CheckpointState& ck) {
  m_.GetCounter("sea.checkpoint.resumes").Add(1);
  // Those iterations and checks ran in an earlier process (whose op
  // counts the checkpoint does not carry).
  iterations_done_ = static_cast<std::size_t>(ck.iteration);
  checks_done_ = static_cast<std::size_t>(ck.checks_compared);
}

void MetricsObserver::OnRecovery(std::size_t /*iteration*/, std::uint8_t rung,
                                 std::uint64_t /*recovered*/) {
  m_.GetCounter("sea.recovery.rescues").Add(1);
  m_.GetCounter(std::string("sea.recovery.rung.") + RecoveryRungName(rung))
      .Add(1);
  m_.GetGauge("sea.recovery.active_rung").Set(static_cast<double>(rung));
}

void MetricsObserver::OnCheckpointWrite(bool ok) {
  m_.GetCounter(ok ? "sea.checkpoint.writes" : "sea.checkpoint.write_failures")
      .Add(1);
}

void MetricsObserver::Commit(std::size_t iterations, std::size_t checks,
                             const OpCounts& ops) {
  iterations_->Add(iterations - iterations_done_);
  checks_->Add(checks - checks_done_);
  const OpCounts delta = ops - ops_done_;
  flops_->Add(delta.flops);
  comparisons_->Add(delta.comparisons);
  breakpoints_->Add(delta.breakpoints);
  inversions_->Add(delta.inversions);
  iterations_done_ = iterations;
  checks_done_ = checks;
  ops_done_ = ops;
}

void MetricsObserver::OnCheck(const IterationEvent& ev) {
  if (ev.measure_defined && std::isfinite(ev.measure))
    residual_->Observe(ev.measure);
  // Every check commits, so the last commit is the previous check.
  interval_->Observe(static_cast<double>(ev.iteration - iterations_done_));
  Commit(ev.iteration, ev.checks_compared, ev.ops_total);
}

void MetricsObserver::OnOuterStep(const OuterStepEvent& ev) {
  if (ev.outer_iteration == 1) linearize_done_ = 0.0;
  m_.GetCounter("sea.general.outer_iterations").Add(1);
  m_.GetGauge("sea.general.linearization_seconds")
      .Add(ev.linearize_seconds - linearize_done_);
  linearize_done_ = ev.linearize_seconds;
  m_.GetGauge("sea.general.final_outer_change").Set(ev.change);
  m_.GetGauge("sea.general.converged").Set(ev.converged ? 1.0 : 0.0);
}

void MetricsObserver::OnEnd(const SeaResult& result) {
  Commit(result.iterations, result.checks_compared, result.ops);
  m_.GetCounter("sea.sweep.order_reuses").Add(result.order_reuses);
  m_.GetCounter("sea.kernel.scalar.markets").Add(result.kernel_markets);
  m_.GetCounter("sea.solves").Add(1);
  if (result.converged()) m_.GetCounter("sea.solves_converged").Add(1);
  m_.GetCounter(std::string("solver.status.") + sea::ToString(result.status))
      .Add(1);
  // Phase seconds accumulate across solves (the general algorithm runs
  // one engine solve per projection step).
  m_.GetGauge("sea.row_phase_seconds").Add(result.row_phase_seconds);
  m_.GetGauge("sea.col_phase_seconds").Add(result.col_phase_seconds);
  m_.GetGauge("sea.check_phase_seconds").Add(result.check_phase_seconds);
  m_.GetGauge("sea.wall_seconds").Add(result.wall_seconds);
  m_.GetGauge("sea.cpu_seconds").Add(result.cpu_seconds);
  m_.GetGauge("sea.final_residual").Set(result.final_residual);
  m_.GetGauge("sea.converged").Set(result.converged() ? 1.0 : 0.0);
  if (attribution_ != nullptr) {
    m_.GetCounter("sea.market.tracked").Add(attribution_->markets());
    m_.GetCounter("sea.market.checks").Add(attribution_->checks().size());
    m_.GetCounter("sea.market.solves").Add(attribution_->total_solves());
    m_.GetCounter("sea.market.churn").Add(attribution_->total_churn());
  }
}

}  // namespace sea::obs
