// Telemetry-layer tests: metrics registry semantics, JSON rendering,
// trace-sink event contract under the iteration engine, the JSONL round
// trip, pool-metrics registration, the span profiler, and the bench-JSON
// reader behind tools/bench_diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "core/engine_observer.hpp"
#include "core/general_sea.hpp"
#include "core/stopping.hpp"
#include "datasets/general_dense.hpp"
#include "datasets/io_tables.hpp"
#include "datasets/large_diagonal.hpp"
#include "obs/bench_reader.hpp"
#include "obs/json_export.hpp"
#include "obs/market_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/solve_log.hpp"
#include "obs/status_file.hpp"
#include "obs/trace_reader.hpp"
#include "obs/trace_sink.hpp"
#include "parallel/thread_pool.hpp"
#include "spe/spe_generator.hpp"
#include "sparse/sparse_sea.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace sea {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

DiagonalProblem SmallFixedProblem(std::size_t m, std::size_t n) {
  Rng rng(42);
  DenseMatrix x0(m, n), gamma(m, n);
  for (double& v : x0.Flat()) v = rng.Uniform(0.5, 20.0);
  for (double& v : gamma.Flat()) v = rng.Uniform(0.1, 2.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.3;
  for (double& v : d0) v *= 1.3;
  return DiagonalProblem::MakeFixed(std::move(x0), std::move(gamma),
                                    std::move(s0), std::move(d0));
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, CounterAccumulatesAndSnapshots) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.GetCounter("test.count");
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  // Same name resolves to the same counter.
  reg.GetCounter("test.count").Add(8);
  const auto snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.count"), 50u);
  EXPECT_EQ(snap.CounterValue("missing"), 0u);
}

TEST(Metrics, CounterMergesConcurrentAdds) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.GetCounter("test.concurrent");
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.Add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.GetGauge("test.gauge");
  g.Set(2.5);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(reg.Snapshot().GaugeValue("test.gauge"), 3.0);
}

TEST(Metrics, HistogramBucketsObservations) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.GetHistogram("test.hist", {1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(1.0);    // bucket 0 (boundary counts down)
  h.Observe(5.0);    // bucket 1
  h.Observe(1000.0); // overflow bucket
  const auto full = reg.Snapshot();
  const auto* snap = full.FindHistogram("test.hist");
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->counts.size(), 4u);
  EXPECT_EQ(snap->counts[0], 2u);
  EXPECT_EQ(snap->counts[1], 1u);
  EXPECT_EQ(snap->counts[2], 0u);
  EXPECT_EQ(snap->counts[3], 1u);
  EXPECT_EQ(snap->total_count, 4u);
  EXPECT_DOUBLE_EQ(snap->min, 0.5);
  EXPECT_DOUBLE_EQ(snap->max, 1000.0);
  EXPECT_DOUBLE_EQ(snap->sum, 1006.5);
}

// An unobserved histogram exports zeros: its min/max sentinels (+-inf)
// never reach the snapshot or the Prometheus text.
TEST(Metrics, UnobservedHistogramSnapshotsAndExportsZeros) {
  obs::MetricsRegistry reg;
  reg.GetHistogram("test.empty", {1.0, 10.0});
  const auto full = reg.Snapshot();
  const auto* snap = full.FindHistogram("test.empty");
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->counts.size(), 3u);
  for (const auto c : snap->counts) EXPECT_EQ(c, 0u);
  EXPECT_EQ(snap->total_count, 0u);
  EXPECT_EQ(snap->sum, 0.0);
  EXPECT_EQ(snap->min, 0.0);
  EXPECT_EQ(snap->max, 0.0);

  std::ostringstream out;
  reg.WritePrometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("test_empty_bucket{le=\"+Inf\"} 0\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_empty_count 0\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf\n"), std::string::npos) << text;
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.GetHistogram("bad", {10.0, 1.0}), InvalidArgument);
}

// ------------------------------------------------------------------- JSON

TEST(JsonExport, EscapesStrings) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonExport, NumbersRoundTrip) {
  EXPECT_EQ(obs::JsonNumber(2.0), "2");
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(obs::JsonNumber(v)), v);  // shortest round trip
  EXPECT_EQ(obs::JsonNumber(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

TEST(JsonExport, ObjectAndArrayBuilders) {
  const std::string json = obs::JsonObj()
                               .Field("name", "x,\"y\"")
                               .Field("n", std::uint64_t{3})
                               .Field("ok", true)
                               .Raw("arr", obs::JsonArr().Add(1.5).Str())
                               .Str();
  EXPECT_EQ(json, "{\"name\":\"x,\\\"y\\\"\",\"n\":3,\"ok\":true,"
                  "\"arr\":[1.5]}");
}

// ----------------------------------------------------------- trace reader

TEST(TraceReader, RoundTripsSinkEvents) {
  IterationEvent ev;
  ev.iteration = 7;
  ev.measure_defined = true;
  ev.measure = 1.25e-3;
  ev.converged = true;
  ev.checks_compared = 4;
  ev.row_phase_seconds = 0.5;
  ev.ops_delta.flops = 100;
  ev.ops_total.flops = 400;
  const auto parsed = obs::ParseTraceLine(obs::ToJsonLine(ev));
  EXPECT_EQ(parsed.Type(), "check");
  EXPECT_EQ(parsed.Number("iter"), 7.0);
  EXPECT_EQ(parsed.Number("measure"), 1.25e-3);
  EXPECT_TRUE(parsed.Flag("measure_defined"));
  EXPECT_TRUE(parsed.Flag("converged"));
  EXPECT_EQ(parsed.Number("checks_compared"), 4.0);
  EXPECT_EQ(parsed.Number("flops_delta"), 100.0);
  EXPECT_EQ(parsed.Number("flops_total"), 400.0);

  OuterStepEvent oev;
  oev.outer_iteration = 3;
  oev.change = 0.25;
  oev.inner_iterations = 12;
  const auto po = obs::ParseTraceLine(obs::ToJsonLine(oev));
  EXPECT_EQ(po.Type(), "outer");
  EXPECT_EQ(po.Number("iter"), 3.0);
  EXPECT_EQ(po.Number("inner_iterations"), 12.0);
}

TEST(TraceReader, ToleratesUnknownKeysAndNull) {
  const auto ev = obs::ParseTraceLine(
      "{\"type\":\"check\",\"future_field\":\"hi\",\"measure\":null}");
  EXPECT_EQ(ev.Type(), "check");
  EXPECT_EQ(ev.strings.at("future_field"), "hi");
  EXPECT_FALSE(ev.Has("measure"));  // null stays absent
  EXPECT_EQ(ev.Number("measure", 5.0), 5.0);
}

TEST(TraceReader, RejectsMalformedLines) {
  EXPECT_THROW(obs::ParseTraceLine("not json"), InvalidArgument);
  EXPECT_THROW(obs::ParseTraceLine("{\"a\":1"), InvalidArgument);
  EXPECT_THROW(obs::ParseTraceLine("{\"a\":1}garbage"), InvalidArgument);
  EXPECT_THROW(obs::ReadTraceJsonl("/nonexistent/trace.jsonl"),
               InvalidArgument);
}

// ------------------------------------- engine contract (satellite task 3)

// Records everything an observer sees, for asserting the event contract:
// the check and outer events, plus one line per hook in arrival order —
// also appended to `shared` (when set) tagged with this observer, so a
// test can pin the fan-out order across observers.
class RecordingSink : public EngineObserver {
 public:
  std::vector<IterationEvent> checks;
  std::vector<OuterStepEvent> outers;
  std::vector<std::string> lines;
  std::vector<std::pair<const RecordingSink*, std::string>>* shared = nullptr;

  void OnBegin(const SeaOptions&) override { Note("begin"); }
  void OnResume(const CheckpointState&) override { Note("resume"); }
  void OnGuardrail(Guardrail kind, std::size_t t, double) override {
    Note("guardrail " + std::to_string(static_cast<int>(kind)) + " @" +
         std::to_string(t));
  }
  void OnRecovery(std::size_t t, std::uint8_t rung, std::uint64_t) override {
    Note(std::string("recovery ") + RecoveryRungName(rung) + " @" +
         std::to_string(t));
  }
  void OnCheckpointWrite(bool ok) override {
    Note(ok ? "checkpoint" : "checkpoint failed");
  }
  void OnCheck(const IterationEvent& ev) override {
    checks.push_back(ev);
    Note("check @" + std::to_string(ev.iteration));
  }
  void OnOuterStep(const OuterStepEvent& ev) override {
    outers.push_back(ev);
    Note("outer @" + std::to_string(ev.outer_iteration));
  }
  void OnEnd(const SeaResult& r) override {
    Note(std::string("end ") + ToString(r.status));
  }

 private:
  void Note(std::string line) {
    if (shared != nullptr) shared->emplace_back(this, line);
    lines.push_back(std::move(line));
  }
};

TEST(TraceContract, EventsFireOnCheckIterationsOnly) {
  const auto problem = SmallFixedProblem(6, 8);
  RecordingSink sink;
  SeaOptions opts;
  opts.epsilon = 1e-8;
  opts.check_every = 3;
  opts.observers.push_back(&sink);
  const auto run = SolveDiagonal(problem, opts);

  ASSERT_FALSE(sink.checks.empty());
  for (std::size_t k = 0; k < sink.checks.size(); ++k) {
    const auto& ev = sink.checks[k];
    // Only multiples of check_every, the final iteration, or the converged
    // iteration may emit events.
    const bool is_last = k + 1 == sink.checks.size();
    if (!is_last) {
      EXPECT_EQ(ev.iteration % 3, 0u) << "event " << k;
    }
    EXPECT_TRUE(ev.measure_defined);  // residual criteria always defined
  }
  EXPECT_EQ(sink.checks.back().iteration, run.result.iterations);
  EXPECT_EQ(sink.checks.back().converged, run.result.converged());
  EXPECT_EQ(sink.checks.back().measure, run.result.final_residual);
}

TEST(TraceContract, FirstXChangeCheckIsUndefined) {
  const auto problem = SmallFixedProblem(5, 5);
  RecordingSink sink;
  SeaOptions opts;
  opts.epsilon = 1e-6;
  opts.criterion = StopCriterion::kXChange;
  opts.observers.push_back(&sink);
  SolveDiagonal(problem, opts);

  ASSERT_GE(sink.checks.size(), 2u);
  EXPECT_FALSE(sink.checks.front().measure_defined);
  EXPECT_EQ(sink.checks.front().checks_compared, 0u);
  for (std::size_t k = 1; k < sink.checks.size(); ++k) {
    EXPECT_TRUE(sink.checks[k].measure_defined);
    EXPECT_EQ(sink.checks[k].checks_compared, k);
  }
}

TEST(TraceContract, CumulativePhaseTimesAndOpsAreMonotone) {
  const auto problem = SmallFixedProblem(8, 6);
  RecordingSink sink;
  SeaOptions opts;
  opts.epsilon = 1e-9;
  opts.observers.push_back(&sink);
  SolveDiagonal(problem, opts);

  ASSERT_GE(sink.checks.size(), 2u);
  OpCounts delta_sum;
  for (std::size_t k = 0; k < sink.checks.size(); ++k) {
    const auto& ev = sink.checks[k];
    delta_sum += ev.ops_delta;
    EXPECT_EQ(delta_sum.flops, ev.ops_total.flops);
    EXPECT_EQ(delta_sum.comparisons, ev.ops_total.comparisons);
    if (k == 0) continue;
    const auto& prev = sink.checks[k - 1];
    EXPECT_GE(ev.row_phase_seconds, prev.row_phase_seconds);
    EXPECT_GE(ev.col_phase_seconds, prev.col_phase_seconds);
    EXPECT_GE(ev.check_phase_seconds, prev.check_phase_seconds);
    EXPECT_GE(ev.ops_total.flops, prev.ops_total.flops);
    EXPECT_GT(ev.iteration, prev.iteration);
  }
}

TEST(TraceContract, ObserversSeeTheSameEventsInListOrder) {
  const auto problem = SmallFixedProblem(6, 6);
  std::vector<std::pair<const RecordingSink*, std::string>> shared;
  RecordingSink first, second;
  first.shared = second.shared = &shared;
  SeaOptions opts;
  opts.epsilon = 1e-7;
  opts.check_every = 2;
  opts.recover = true;
  opts.stall_checks = 1;
  const std::string ck_path = TempPath("fanout.ck");
  std::remove(ck_path.c_str());
  CheckpointWriter checkpoint(ck_path);
  opts.checkpoint = &checkpoint;
  opts.observers = {&first, &second};
  // A frozen measure trips the stall detector, so the guardrail and
  // recovery hooks fan out too.
  fail::Arm("sea.engine.freeze_measure", 2, 1);
  SolveDiagonal(problem, opts);
  fail::DisarmAll();
  std::remove(ck_path.c_str());

  EXPECT_EQ(first.lines, second.lines);
  ASSERT_EQ(first.lines.front(), "begin");
  EXPECT_NE(std::find(first.lines.begin(), first.lines.end(),
                      "recovery restore @4"),
            first.lines.end());
  EXPECT_NE(std::find(first.lines.begin(), first.lines.end(), "checkpoint"),
            first.lines.end());
  // Each event reaches every observer, in list order, before the next
  // event is emitted.
  ASSERT_EQ(shared.size(), 2 * first.lines.size());
  for (std::size_t k = 0; k < first.lines.size(); ++k) {
    EXPECT_EQ(shared[2 * k].first, &first) << k;
    EXPECT_EQ(shared[2 * k + 1].first, &second) << k;
    EXPECT_EQ(shared[2 * k].second, first.lines[k]);
    EXPECT_EQ(shared[2 * k + 1].second, first.lines[k]);
  }
  ASSERT_EQ(first.checks.size(), second.checks.size());
  for (std::size_t k = 0; k < first.checks.size(); ++k) {
    EXPECT_EQ(first.checks[k].iteration, second.checks[k].iteration);
    EXPECT_EQ(first.checks[k].measure, second.checks[k].measure);
    EXPECT_EQ(first.checks[k].ops_total.flops,
              second.checks[k].ops_total.flops);
  }
}

TEST(TraceContract, EngineFillsMetricsRegistry) {
  const auto problem = SmallFixedProblem(6, 8);
  obs::MetricsRegistry metrics;
  SeaOptions opts;
  opts.epsilon = 1e-8;
  opts.check_every = 2;
  obs::MetricsObserver metrics_observer(metrics);
  opts.observers.push_back(&metrics_observer);
  const auto run = SolveDiagonal(problem, opts);

  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("sea.iterations"), run.result.iterations);
  EXPECT_EQ(snap.CounterValue("sea.checks_compared"),
            run.result.checks_compared);
  EXPECT_EQ(snap.CounterValue("sea.ops.flops"), run.result.ops.flops);
  EXPECT_EQ(snap.CounterValue("sea.solves"), 1u);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("sea.converged"),
                   run.result.converged() ? 1.0 : 0.0);
  const auto* resid = snap.FindHistogram("sea.check.residual");
  ASSERT_NE(resid, nullptr);
  EXPECT_EQ(resid->total_count, run.result.checks_compared);
  const auto* interval = snap.FindHistogram("sea.check.interval_iters");
  ASSERT_NE(interval, nullptr);
  EXPECT_GT(interval->total_count, 0u);
}

TEST(TraceContract, GeneralSeaEmitsOuterEvents) {
  Rng rng(7);
  const auto problem = datasets::MakeGeneralDense(4, 4, rng);

  RecordingSink sink;
  obs::MetricsRegistry metrics;
  obs::MetricsObserver metrics_observer(metrics);
  GeneralSeaOptions opts;
  opts.outer_epsilon = 1e-4;
  opts.inner.observers = {&sink, &metrics_observer};
  const auto run = SolveGeneral(problem, opts);

  ASSERT_EQ(sink.outers.size(), run.result.outer_iterations);
  EXPECT_FALSE(sink.checks.empty());  // inner solves share the sink
  const auto& last = sink.outers.back();
  EXPECT_EQ(last.outer_iteration, run.result.outer_iterations);
  EXPECT_EQ(last.converged, run.result.converged());
  EXPECT_EQ(last.inner_iterations_total, run.result.total_inner_iterations);
  EXPECT_EQ(last.change, run.result.final_outer_change);
  for (std::size_t k = 1; k < sink.outers.size(); ++k)
    EXPECT_GE(sink.outers[k].inner_iterations_total,
              sink.outers[k - 1].inner_iterations_total);

  // The metrics observer turns the same outer events into sea.general.*.
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("sea.general.outer_iterations"),
            run.result.outer_iterations);
  EXPECT_EQ(snap.GaugeValue("sea.general.final_outer_change"),
            run.result.final_outer_change);
  EXPECT_EQ(snap.GaugeValue("sea.general.converged"),
            run.result.converged() ? 1.0 : 0.0);
  EXPECT_NEAR(snap.GaugeValue("sea.general.linearization_seconds"),
              run.result.linearization_seconds, 1e-9);
  EXPECT_EQ(snap.CounterValue("sea.iterations"),
            run.result.total_inner_iterations);
}

TEST(TraceContract, JsonlSinkWritesParseableFile) {
  const std::string path = TempPath("sea_test_trace.jsonl");
  std::remove(path.c_str());
  const auto problem = SmallFixedProblem(5, 7);
  {
    obs::JsonlTraceSink sink(path);
    SeaOptions opts;
    opts.epsilon = 1e-7;
    opts.observers.push_back(&sink);
    SolveDiagonal(problem, opts);
    EXPECT_GT(sink.events_written(), 0u);
  }
  // The solve's begin and termination events bracket its check lines;
  // every check line carries the schema version.
  const auto events = obs::ReadTraceJsonl(path);
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().strings.at("kind"), "begin");
  EXPECT_EQ(events.back().strings.at("kind"), "termination");
  for (std::size_t k = 1; k + 1 < events.size(); ++k) {
    EXPECT_EQ(events[k].Type(), "check");
    EXPECT_EQ(events[k].Number("schema"), obs::kTelemetrySchemaVersion);
  }
  std::remove(path.c_str());
}

// The two offline artifacts agree on the answer, read back from their JSON
// text: the trace's last check event carries the result document's
// iteration count and final residual (sea_solve writes that document as the
// metrics JSON's "result"; tools/ci/telemetry_smoke.sh checks the files).
TEST(TraceContract, JsonlTraceLastCheckMatchesResultJson) {
  const std::string path = TempPath("sea_test_trace_agrees.jsonl");
  std::remove(path.c_str());
  const auto problem = SmallFixedProblem(7, 6);
  SeaOptions opts;
  opts.epsilon = 1e-9;
  opts.check_every = 4;
  std::string result_json;
  std::size_t iterations = 0;
  {
    obs::JsonlTraceSink sink(path);
    opts.observers.push_back(&sink);
    const auto run = SolveDiagonal(problem, opts);
    result_json = obs::ToJson(run.result);
    iterations = run.result.iterations;
  }
  auto events = obs::ReadTraceJsonl(path);
  std::remove(path.c_str());
  std::erase_if(events, [](const obs::TraceEvent& ev) {
    return ev.Type() != "check";
  });
  ASSERT_FALSE(events.empty());
  const auto& last = events.back();

  std::map<std::string, std::string> result;
  for (auto& [key, raw] : obs::JsonObjectFields(result_json)) result[key] = raw;
  EXPECT_EQ(last.numbers.at("iter"), std::stod(result.at("iterations")));
  EXPECT_EQ(last.numbers.at("measure"), std::stod(result.at("final_residual")));
  EXPECT_EQ(last.numbers.at("iter"), static_cast<double>(iterations));
}

// ------------------------------------------------------------ pool metrics

TEST(PoolMetrics, RecordsUtilizationSnapshot) {
  ThreadPool pool(2);
  pool.EnableStats(true);
  std::atomic<int> count{0};
  pool.ParallelFor(64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) count.fetch_add(1);
  });
  const PoolStats stats = pool.Stats();
  obs::MetricsRegistry reg;
  obs::RecordPoolMetrics(reg, stats);
  const auto snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("pool.regions"), 1u);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("pool.threads"), 2.0);
  EXPECT_GT(snap.GaugeValue("pool.busy_seconds_total"), 0.0);
  // The JSON fragment carries the headline fields (nested worker array
  // means it is not flat trace-reader JSON; python json validates it in CI).
  const std::string json = obs::ToJson(stats);
  EXPECT_NE(json.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(json.find("\"regions\":1"), std::string::npos);
  EXPECT_NE(json.find("\"worker_busy_seconds\":["), std::string::npos);
}

// ----------------------------------------------------------------- profiler

TEST(Profiler, DetachedSitesRecordNothing) {
  ASSERT_EQ(obs::Profiler::Current(), nullptr);
  for (int i = 0; i < 100; ++i) {
    obs::ProfScope scope("test.detached");
  }
  obs::Profiler prof;
  prof.Attach();
  prof.Detach();
  EXPECT_TRUE(prof.Events().empty());
  EXPECT_EQ(prof.thread_count(), 0u);
  EXPECT_EQ(prof.dropped(), 0u);
}

TEST(Profiler, RecordsNestedScopes) {
  obs::Profiler prof;
  prof.Attach();
  {
    obs::ProfScope outer("test.outer");
    { obs::ProfScope inner("test.inner"); }
    { obs::ProfScope inner("test.inner"); }
  }
  prof.Detach();
  const auto events = prof.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(prof.thread_count(), 1u);
  for (const auto& ev : events) EXPECT_GE(ev.end_ns, ev.start_ns);

  const auto stats = obs::SummarizeSpans(obs::ToRawSpans(events));
  ASSERT_EQ(stats.size(), 2u);
  const auto& outer = stats[0].name == "test.outer" ? stats[0] : stats[1];
  const auto& inner = stats[0].name == "test.inner" ? stats[0] : stats[1];
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 2u);
  // The inner spans' time is charged to them, not double counted: the
  // outer phase's self time is its total minus the nested spans' total.
  EXPECT_NEAR(outer.self_seconds, outer.total_seconds - inner.total_seconds,
              1e-12);
  EXPECT_LE(inner.total_seconds, outer.total_seconds);
}

TEST(Profiler, SummarizeAttributesChildTimeDeterministically) {
  const std::vector<obs::RawSpan> spans = {
      {"outer", 0, 100, 0},
      {"inner", 10, 30, 0},
      {"inner", 40, 60, 0},
      {"solo", 0, 50, 1},  // other thread: never a child of thread 0's outer
  };
  const auto stats = obs::SummarizeSpans(spans);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].name, "outer");  // sorted by descending self time
  EXPECT_DOUBLE_EQ(stats[0].total_seconds, 100 * 1e-9);
  EXPECT_DOUBLE_EQ(stats[0].self_seconds, 60 * 1e-9);
  auto find = [&stats](const std::string& name) -> const obs::PhaseStat& {
    for (const auto& st : stats)
      if (st.name == name) return st;
    throw InternalError("phase not found: " + name);
  };
  EXPECT_EQ(find("inner").count, 2u);
  EXPECT_DOUBLE_EQ(find("inner").total_seconds, 40 * 1e-9);
  EXPECT_DOUBLE_EQ(find("inner").self_seconds, 40 * 1e-9);
  EXPECT_DOUBLE_EQ(find("inner").max_seconds, 20 * 1e-9);
  EXPECT_DOUBLE_EQ(find("inner").mean_seconds, 20 * 1e-9);
  EXPECT_DOUBLE_EQ(find("solo").self_seconds, 50 * 1e-9);
  EXPECT_DOUBLE_EQ(obs::ProfileWallSeconds(spans), 100 * 1e-9);
}

// The table every bench prints after its JSON and sea_solve prints under
// --profile-summary: one row per phase, self time as a share of wall.
TEST(Profiler, PrintProfileSummaryRowsEveryPhaseWithItsWallShare) {
  const std::vector<obs::RawSpan> spans = {
      {"outer", 0, 100, 0}, {"inner", 10, 30, 0}, {"inner", 40, 60, 0}};
  std::ostringstream out;
  obs::PrintProfileSummary(out, obs::SummarizeSpans(spans),
                           obs::ProfileWallSeconds(spans));
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("per-phase profile (wall 1e-07s):\n", 0), 0u) << text;
  const std::size_t outer = text.find("\n  outer ");
  const std::size_t inner = text.find("\n  inner ");
  ASSERT_NE(outer, std::string::npos) << text;
  ASSERT_NE(inner, std::string::npos) << text;
  EXPECT_LT(outer, inner) << text;  // descending self time
  EXPECT_NE(text.find("60.0%", outer), std::string::npos) << text;
  EXPECT_NE(text.find("40.0%", inner), std::string::npos) << text;
  EXPECT_NE(text.find("accounted self time: 1e-07s"), std::string::npos)
      << text;
}

// A run that recorded no spans still prints the header, and no row or
// share divides by its zero wall time.
TEST(Profiler, PrintProfileSummaryOfNoSpansPrintsOnlyTheHeader) {
  const std::vector<obs::RawSpan> none;
  std::ostringstream out;
  obs::PrintProfileSummary(out, obs::SummarizeSpans(none),
                           obs::ProfileWallSeconds(none));
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("per-phase profile (wall 0s):\n", 0), 0u) << text;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2) << text;
  EXPECT_EQ(text.find("accounted"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
}

TEST(Profiler, RecordsSpansFromMultipleThreads) {
  obs::Profiler prof;
  prof.Attach();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([] { obs::ProfScope scope("test.worker"); });
  for (auto& w : workers) w.join();
  prof.Detach();
  const auto events = prof.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(prof.thread_count(), 4u);
  std::set<std::uint32_t> tracks;
  for (const auto& ev : events) tracks.insert(ev.thread);
  EXPECT_EQ(tracks.size(), 4u);  // dense per-thread track indices
  for (std::uint32_t t : tracks) EXPECT_LT(t, 4u);
}

TEST(Profiler, CapsPerThreadEventsAndCountsDrops) {
  obs::ProfilerOptions opts;
  opts.max_events_per_thread = 4;
  obs::Profiler prof(opts);
  prof.Attach();
  for (int i = 0; i < 10; ++i) {
    obs::ProfScope scope("test.capped");
  }
  prof.Detach();
  EXPECT_EQ(prof.Events().size(), 4u);
  EXPECT_EQ(prof.dropped(), 6u);
}

TEST(Profiler, EngineSpansExportAndReadBack) {
  const std::string path = TempPath("sea_test_profile.json");
  std::remove(path.c_str());
  const auto problem = SmallFixedProblem(6, 8);
  obs::Profiler prof;
  prof.Attach();
  SeaOptions opts;
  opts.epsilon = 1e-8;
  SolveDiagonal(problem, opts);
  prof.Detach();

  const auto spans = obs::ToRawSpans(prof.Events());
  ASSERT_FALSE(spans.empty());
  const auto stats = obs::SummarizeSpans(spans);
  auto has = [&stats](const std::string& name) {
    for (const auto& st : stats)
      if (st.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has("engine.solve"));
  EXPECT_TRUE(has("engine.row_sweep"));
  EXPECT_TRUE(has("engine.col_sweep"));
  EXPECT_TRUE(has("engine.check"));
  // Accounting: single-thread self times partition the covered wall time,
  // so their sum recovers (almost) the whole profile window.
  double self_total = 0.0;
  for (const auto& st : stats) self_total += st.self_seconds;
  EXPECT_GE(self_total, 0.95 * obs::ProfileWallSeconds(spans));

  ASSERT_TRUE(obs::WriteChromeTrace(path, spans, "test_obs"));
  const auto back = obs::ReadChromeTrace(path);
  ASSERT_EQ(back.size(), spans.size());
  std::set<std::string> names, back_names;
  for (const auto& s : spans) names.insert(s.name);
  for (const auto& s : back) back_names.insert(s.name);
  EXPECT_EQ(names, back_names);
  // Timestamps survive the microsecond round trip to within rounding.
  const auto back_stats = obs::SummarizeSpans(back);
  for (const auto& st : back_stats) {
    ASSERT_TRUE(has(st.name));
    for (const auto& orig : stats)
      if (orig.name == st.name) {
        EXPECT_NEAR(st.total_seconds, orig.total_seconds,
                    4e-9 * static_cast<double>(st.count) + 1e-12);
        EXPECT_EQ(st.count, orig.count);
      }
  }
  std::remove(path.c_str());
}

TEST(Profiler, ExportFailpointDegradesToFalse) {
  const std::string path = TempPath("sea_test_profile_fail.json");
  const std::vector<obs::RawSpan> spans = {{"phase", 0, 1000, 0}};
  fail::Arm("sea.obs.profile_write");
  EXPECT_FALSE(obs::WriteChromeTrace(path, spans, "test_obs"));
  fail::DisarmAll();
  EXPECT_TRUE(obs::WriteChromeTrace(path, spans, "test_obs"));
  EXPECT_EQ(obs::ReadChromeTrace(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(Profiler, ReadChromeTraceRejectsMalformed) {
  EXPECT_THROW(obs::ReadChromeTrace("/nonexistent/trace.json"),
               InvalidArgument);
  const std::string path = TempPath("sea_test_profile_bad.json");
  {
    std::ofstream f(path);
    f << "[\n{\"name\":\"x\",\"ph\":\"X\"\n]\n";  // unterminated object
  }
  EXPECT_THROW(obs::ReadChromeTrace(path), InvalidArgument);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- bench reader

std::string FixtureBenchLine(const std::string& sha) {
  return "{\"schema\":2,\"bench\":\"fixture\",\"quick\":true,"
         "\"host_threads\":4,\"git_sha\":\"" +
         sha +
         "\",\"build_type\":\"Release\","
         "\"timestamp\":\"2026-08-06T00:00:00Z\",\"wall_seconds\":0.5,"
         "\"cpu_seconds\":1.2,\"peak_rss_bytes\":1048576,"
         "\"records\":["
         "{\"experiment\":\"t6\",\"dataset\":\"IO72a\","
         "\"metric\":\"cpu_seconds\",\"measured\":0.5,\"paper\":333.2691,"
         "\"note\":\"converged\"},"
         "{\"experiment\":\"t6\",\"dataset\":\"IO72a\","
         "\"metric\":\"iterations\",\"measured\":8,\"paper\":null,"
         "\"note\":\"\"}],"
         "\"phases\":[{\"phase\":\"engine.row_sweep\",\"count\":16,"
         "\"total_seconds\":0.3,\"self_seconds\":0.25,"
         "\"mean_seconds\":0.01875,\"max_seconds\":0.05}]}";
}

TEST(BenchReader, ParsesSchema2Document) {
  const auto doc = obs::ParseBenchDoc(FixtureBenchLine("abc1234"));
  EXPECT_EQ(doc.meta.Number("schema"), 2.0);
  EXPECT_EQ(doc.meta.strings.at("git_sha"), "abc1234");
  EXPECT_EQ(doc.meta.strings.at("timestamp"), "2026-08-06T00:00:00Z");
  EXPECT_DOUBLE_EQ(doc.meta.Number("peak_rss_bytes"), 1048576.0);
  ASSERT_EQ(doc.records.size(), 2u);
  EXPECT_EQ(doc.records[0].dataset, "IO72a");
  EXPECT_EQ(doc.records[0].metric, "cpu_seconds");
  EXPECT_DOUBLE_EQ(doc.records[0].measured, 0.5);
  ASSERT_TRUE(doc.records[0].paper.has_value());
  EXPECT_DOUBLE_EQ(*doc.records[0].paper, 333.2691);
  EXPECT_FALSE(doc.records[1].paper.has_value());  // JSON null stays absent
  ASSERT_EQ(doc.phases.size(), 1u);
  EXPECT_EQ(doc.phases[0].phase, "engine.row_sweep");
  EXPECT_DOUBLE_EQ(doc.phases[0].count, 16.0);
  EXPECT_DOUBLE_EQ(doc.phases[0].self_seconds, 0.25);
}

TEST(BenchReader, ToleratesSchema1AndUnknownSections) {
  const auto doc = obs::ParseBenchDoc(
      "{\"schema\":1,\"bench\":\"table2\",\"records\":[{\"experiment\":\"t\","
      "\"dataset\":\"d\",\"metric\":\"cpu_seconds\",\"measured\":1.5,"
      "\"paper\":null,\"note\":\"\"}],\"future_array\":[1,2],"
      "\"future_obj\":{\"x\":{\"y\":[0]}}}");
  EXPECT_EQ(doc.meta.Number("schema"), 1.0);
  EXPECT_EQ(doc.meta.strings.count("git_sha"), 0u);  // v1: no provenance
  ASSERT_EQ(doc.records.size(), 1u);
  EXPECT_DOUBLE_EQ(doc.records[0].measured, 1.5);
  EXPECT_TRUE(doc.phases.empty());
}

TEST(BenchReader, ReadsJsonlOldestFirstAndNamesBadLines) {
  const std::string path = TempPath("sea_test_bench.jsonl");
  {
    std::ofstream f(path);
    f << FixtureBenchLine("run1") << "\n\n" << FixtureBenchLine("run2")
      << "\n";
  }
  const auto docs = obs::ReadBenchJsonl(path);
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0].meta.strings.at("git_sha"), "run1");
  EXPECT_EQ(docs[1].meta.strings.at("git_sha"), "run2");

  {
    std::ofstream f(path, std::ios::app);
    f << "{broken\n";
  }
  try {
    obs::ReadBenchJsonl(path);
    FAIL() << "expected InvalidArgument for the malformed line";
  } catch (const InvalidArgument& err) {
    EXPECT_NE(std::string(err.what()).find("line 4"), std::string::npos);
  }
  std::remove(path.c_str());
  EXPECT_THROW(obs::ReadBenchJsonl(path), InvalidArgument);
}

TEST(BenchReader, JsonObjectFieldsSplitsRawValues) {
  const auto fields = obs::JsonObjectFields(
      "{\"a\":1,\"b\":\"s,{}\",\"c\":[1,2],\"d\":{\"e\":[3]},\"f\":true}");
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0].first, "a");
  EXPECT_EQ(fields[0].second, "1");
  EXPECT_EQ(fields[1].second, "\"s,{}\"");  // braces inside strings ignored
  EXPECT_EQ(fields[2].second, "[1,2]");
  EXPECT_EQ(fields[3].second, "{\"e\":[3]}");
  EXPECT_EQ(fields[4].second, "true");
  EXPECT_THROW(obs::JsonObjectFields("{\"a\":1"), InvalidArgument);

  const auto nums = obs::JsonNumberArray("[1, 2.5 ,\"x\",3]");
  ASSERT_EQ(nums.size(), 3u);
  EXPECT_DOUBLE_EQ(nums[0], 1.0);
  EXPECT_DOUBLE_EQ(nums[1], 2.5);
  EXPECT_DOUBLE_EQ(nums[2], 3.0);
}

// ------------------------------------------------- per-market attribution

// The attribution invariant: at every committed check, the per-row-market
// contributions sum (sequentially, in slot order) to exactly the L1
// aggregate the engine recorded — both sides of the comparison are the same
// fold in the same order, so the match is bit-level, far inside 1e-12.
void AuditAttribution(const obs::MarketAttribution& attr) {
  ASSERT_GT(attr.checks().size(), 0u);
  for (std::size_t c = 0; c < attr.checks().size(); ++c) {
    const auto res = attr.residuals_at(c);
    ASSERT_EQ(res.size(), attr.rows());
    double sum = 0.0;
    for (double r : res) sum += r;
    EXPECT_LE(std::fabs(sum - attr.checks()[c].residual_l1), 1e-12)
        << "check " << c << " (iter " << attr.checks()[c].iteration << ")";
  }
}

TEST(Attribution, SumMatchesEngineAggregateOnIoTable) {
  // A table2-shaped instance (synthetic I/O table, fixed totals).
  datasets::IoTableSpec spec;
  spec.name = "IOTEST";
  spec.size = 40;
  spec.density = 0.5;
  spec.protocol = 'a';
  spec.growth_hi = 0.10;
  spec.base_seed = 7;
  const auto p = datasets::MakeIoTable(spec, 0);
  obs::MarketAttribution attr;
  SeaOptions o;
  o.epsilon = 1e-8;
  o.attribution = &attr;
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(attr.rows(), p.m());
  EXPECT_EQ(attr.cols(), p.n());
  EXPECT_EQ(attr.checks().size(), run.result.checks_compared);
  AuditAttribution(attr);
  // Every market is solved once per sweep per iteration.
  EXPECT_EQ(attr.solves(0), run.result.iterations);
  EXPECT_EQ(attr.solves(p.m()), run.result.iterations);  // first col market
}

TEST(Attribution, SumMatchesEngineAggregateOnSpe) {
  // A table5-shaped instance: spatial price equilibrium, elastic totals.
  Rng rng(99);
  const auto p = spe::Generate(15, 20, rng).ToDiagonalProblem();
  obs::MarketAttribution attr;
  SeaOptions o;
  o.epsilon = 1e-8;
  o.attribution = &attr;
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  AuditAttribution(attr);
  EXPECT_GT(attr.total_solves(), 0u);
}

TEST(Attribution, SparseBackendAttributes) {
  const auto dense = SmallFixedProblem(12, 16);
  const auto p = SparseDiagonalProblem::MakeFixed(
      SparseMatrix::FromDense(dense.x0()),
      SparseMatrix::FromDense(dense.gamma()), dense.s0(), dense.d0());
  obs::MarketAttribution attr;
  SeaOptions o;
  o.epsilon = 1e-8;
  o.attribution = &attr;
  const auto run = SolveSparse(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(attr.rows(), p.m());
  EXPECT_EQ(attr.cols(), p.n());
  AuditAttribution(attr);
}

TEST(Attribution, XChangeCriterionAttributesResidualOfSameIterate) {
  const auto p = SmallFixedProblem(10, 12);
  obs::MarketAttribution attr;
  SeaOptions o;
  o.epsilon = 1e-10;
  o.criterion = StopCriterion::kXChange;
  o.attribution = &attr;
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  // The first xchange check has no defined measure, so it commits nothing;
  // every committed check still satisfies the sum invariant (attributed via
  // the absolute-residual fold of the same materialized iterate).
  EXPECT_LT(attr.checks().size(), run.result.iterations + 1);
  AuditAttribution(attr);
}

TEST(Attribution, JsonlExportRoundTripsSums) {
  const auto p = SmallFixedProblem(8, 9);
  obs::MarketAttribution attr;
  SeaOptions o;
  o.attribution = &attr;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  const std::string path = TempPath("attribution_roundtrip.jsonl");
  ASSERT_TRUE(attr.WriteJsonl(path, o.epsilon, "residual-rel"));
  // Shortest-round-trip doubles: the re-summed file contents reproduce the
  // recorded aggregates bit for bit.
  const auto events = obs::ReadTraceJsonl(path);
  std::vector<double> l1s, sums;
  for (const auto& ev : events) {
    if (ev.Type() == "attribution_check") {
      l1s.push_back(ev.Number("residual_l1"));
      sums.push_back(0.0);
    } else if (ev.Type() == "attribution_residual") {
      ASSERT_FALSE(sums.empty());
      sums.back() += ev.Number("residual");
    }
  }
  ASSERT_EQ(l1s.size(), attr.checks().size());
  for (std::size_t c = 0; c < l1s.size(); ++c)
    EXPECT_LE(std::fabs(sums[c] - l1s[c]), 1e-12) << "check " << c;
  std::remove(path.c_str());
}

TEST(Attribution, ChurnCountsActiveSetMovement) {
  Rng rng(3);
  const auto p = datasets::MakeLargeDiagonal(20, 24, rng);
  obs::MarketAttribution attr;
  SeaOptions o;
  o.epsilon = 1e-9;
  o.attribution = &attr;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  // First committed check is the churn baseline and reports zero.
  ASSERT_FALSE(attr.checks().empty());
  EXPECT_EQ(attr.checks().front().churn, 0u);
  // Per-check totals and per-market tallies agree.
  std::uint64_t from_checks = 0;
  for (const auto& row : attr.checks()) from_checks += row.churn;
  EXPECT_EQ(from_checks, attr.total_churn());
}

// ------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingWrapsKeepingNewestEvents) {
  obs::JsonlTraceSink rec("", 4);  // ring only, no trace file
  for (std::size_t i = 1; i <= 10; ++i) {
    IterationEvent ev;
    ev.iteration = i;
    ev.measure_defined = true;
    ev.measure = 0.1 * static_cast<double>(i);
    rec.OnCheck(ev);
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  const std::string path = TempPath("flight_ring.jsonl");
  ASSERT_TRUE(rec.WritePostmortem(path));
  const auto events = obs::ReadTraceJsonl(path);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().Type(), "postmortem");
  EXPECT_EQ(events.front().Number("events_dropped"), 6.0);
  // Only the newest four survive, oldest first.
  EXPECT_EQ(events[1].Type(), "last_good");
  EXPECT_EQ(events[1].Number("iter"), 10.0);
  std::vector<double> iters;
  for (const auto& ev : events)
    if (ev.Type() == "check") iters.push_back(ev.Number("iter"));
  ASSERT_EQ(iters.size(), 4u);
  EXPECT_EQ(iters.front(), 7.0);
  EXPECT_EQ(iters.back(), 10.0);
  std::remove(path.c_str());
}

TEST(FlightRecorder, SurvivesAcrossChainedSolves) {
  const auto p = SmallFixedProblem(6, 7);
  obs::JsonlTraceSink rec("");
  SeaOptions o;
  o.observers.push_back(&rec);
  const auto first = SolveDiagonal(p, o);
  ASSERT_TRUE(first.result.converged());
  const std::size_t after_first = rec.recorded();
  const auto second = SolveDiagonal(p, o);
  ASSERT_TRUE(second.result.converged());
  // The ring keeps accumulating across runs (warm-started chains dump with
  // the history of the solves leading up to the failure).
  EXPECT_GT(rec.recorded(), after_first);
  EXPECT_FALSE(rec.dumped());  // converged solves never auto-dump
}

// ------------------------------------------------------ live status file

TEST(StatusFile, WritesParseableSnapshotsWithEta) {
  const std::string path = TempPath("status_snapshot.json");
  obs::StatusFileWriter writer(path, 1e-6, /*min_interval_seconds=*/0.0);
  IterationEvent ev;
  ev.iteration = 10;
  ev.measure_defined = true;
  ev.measure = 1e-2;
  ev.checks_compared = 1;
  writer.OnCheck(ev);
  ev.iteration = 20;
  ev.measure = 1e-3;  // rho = 10^(-1/10) per iteration
  ev.checks_compared = 2;
  writer.OnCheck(ev);
  {
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::string line;
    ASSERT_TRUE(std::getline(f, line));
    const auto snap = obs::ParseTraceLine(line);
    EXPECT_EQ(snap.Type(), "status");
    EXPECT_EQ(snap.strings.at("phase"), "iterating");
    EXPECT_EQ(snap.Number("iter"), 20.0);
    EXPECT_TRUE(snap.Flag("measure_defined"));
    // measure 1e-3 -> epsilon 1e-6 at one decade per ten iterations: 30.
    EXPECT_NEAR(snap.Number("eta_iterations"), 30.0, 1e-6);
  }
  SeaResult converged;
  converged.status = SolveStatus::kConverged;
  writer.OnEnd(converged);
  {
    std::ifstream f(path);
    std::string line;
    ASSERT_TRUE(std::getline(f, line));
    const auto snap = obs::ParseTraceLine(line);
    EXPECT_EQ(snap.strings.at("phase"), "terminated");
    EXPECT_EQ(snap.strings.at("status"), "converged");
  }
  EXPECT_GE(writer.writes(), 3u);
  std::remove(path.c_str());
}

TEST(StatusFile, EngineWritesFinalSnapshot) {
  const auto p = SmallFixedProblem(8, 8);
  const std::string path = TempPath("status_engine.json");
  std::remove(path.c_str());
  obs::StatusFileWriter writer(path, 1e-6);
  SeaOptions o;
  o.observers.push_back(&writer);
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  ASSERT_TRUE(std::getline(f, line));
  const auto snap = obs::ParseTraceLine(line);
  EXPECT_EQ(snap.strings.at("phase"), "terminated");
  EXPECT_EQ(snap.strings.at("status"), "converged");
  EXPECT_TRUE(snap.Flag("converged"));
  EXPECT_EQ(snap.Number("iter"),
            static_cast<double>(run.result.iterations));
  std::remove(path.c_str());
}

TEST(Stopping, EstimateItersToEpsilonGeometricRate) {
  // One decade per 10 iterations: from 1e-3 at iter 20 to 1e-6 is 30 more.
  EXPECT_NEAR(EstimateItersToEpsilon(10, 1e-2, 20, 1e-3, 1e-6), 30.0, 1e-9);
  // Already below tolerance.
  EXPECT_EQ(EstimateItersToEpsilon(10, 1e-2, 20, 1e-7, 1e-6), 0.0);
  // Not converging (measure rose): no estimate.
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(10, 1e-3, 20, 1e-2, 1e-6)));
  // Degenerate inputs: no estimate.
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(10, 0.0, 20, 1e-3, 1e-6)));
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(20, 1e-2, 10, 1e-3, 1e-6)));
}

// ------------------------------------------------- tolerant trace reader

TEST(TraceReader, TolerantModeCountsMalformedLines) {
  const std::string path = TempPath("tolerant_trace.jsonl");
  {
    std::ofstream f(path);
    f << "{\"type\":\"check\",\"iter\":1}\n"
      << "not json at all\n"
      << "{\"type\":\"check\",\"iter\":2}\n"
      << "{\"type\":\"check\",\"iter\":3\n";  // torn tail
  }
  // Strict mode still throws, naming the line.
  EXPECT_THROW(obs::ReadTraceJsonl(path), InvalidArgument);
  // Tolerant mode keeps every well-formed line and counts the rest.
  std::size_t skipped = 0;
  const auto events = obs::ReadTraceJsonl(path, &skipped);
  EXPECT_EQ(skipped, 2u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].Number("iter"), 1.0);
  EXPECT_EQ(events[1].Number("iter"), 2.0);
  // A missing file throws in both modes.
  std::remove(path.c_str());
  EXPECT_THROW(obs::ReadTraceJsonl(path, &skipped), InvalidArgument);
}

// ------------------------------------------------- prometheus exposition

TEST(Metrics, WritePrometheusTextExposition) {
  obs::MetricsRegistry reg;
  reg.GetCounter("sea.iterations").Add(42);
  reg.GetGauge("sea.final_residual").Set(1.5e-7);
  auto& h = reg.GetHistogram("sea.check.residual", {0.1, 1.0, 10.0});
  h.Observe(0.05);
  h.Observe(0.5);
  h.Observe(50.0);

  std::ostringstream out;
  reg.WritePrometheus(out);
  const std::string text = out.str();

  // Names sanitized to [a-zA-Z0-9_:], counters suffixed _total.
  EXPECT_NE(text.find("# TYPE sea_iterations_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("sea_iterations_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sea_final_residual gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("sea_final_residual 1.5e-07\n"), std::string::npos);
  // Histogram buckets are cumulative and end with the +Inf bucket == count.
  EXPECT_NE(text.find("# TYPE sea_check_residual histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("sea_check_residual_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sea_check_residual_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("sea_check_residual_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("sea_check_residual_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sea_check_residual_count 3\n"), std::string::npos);
  // Format check: every non-comment line is "name[{labels}] value", names
  // restricted to the Prometheus charset.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string name = line.substr(0, sp);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    ASSERT_FALSE(name.empty()) << line;
    for (char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << "bad metric name char in: " << line;
    // The value parses as a double (or the Prometheus infinity spellings).
    const std::string value = line.substr(sp + 1);
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      std::size_t pos = 0;
      (void)std::stod(value, &pos);
      EXPECT_EQ(pos, value.size()) << "bad value in: " << line;
    }
  }
}

TEST(Metrics, PrometheusAndJsonSeeTheSameRegistry) {
  const auto p = SmallFixedProblem(8, 9);
  obs::MetricsRegistry reg;
  obs::MarketAttribution attr;
  SeaOptions o;
  obs::MetricsObserver reg_observer(reg);
  o.observers.push_back(&reg_observer);
  o.attribution = &attr;
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  std::ostringstream out;
  obs::WritePrometheus(out, reg.Snapshot());
  const std::string text = out.str();
  // The engine's counters — including the sea.market.* forensics family —
  // surface under sanitized names.
  EXPECT_NE(text.find("sea_market_tracked_total"), std::string::npos);
  EXPECT_NE(text.find("sea_market_solves_total"), std::string::npos);
  EXPECT_NE(text.find("solver_status_converged_total 1\n"),
            std::string::npos);
}

// ----------------------------------------------------------------------
// Telemetry-plane units: ETA guards, hostile Prometheus names, the wide
// solve event, and the pathless status writer backing /statusz.

TEST(Stopping, EtaEstimateIsAlwaysFiniteNonNegativeOrNan) {
  // Converging geometric regime: a finite, non-negative count.
  const double eta = EstimateItersToEpsilon(10, 1e-2, 20, 1e-3, 1e-6);
  ASSERT_TRUE(std::isfinite(eta));
  EXPECT_GE(eta, 0.0);
  // Already at tolerance.
  EXPECT_EQ(EstimateItersToEpsilon(10, 1e-2, 20, 1e-7, 1e-6), 0.0);
  // Flat and diverging measures: no contraction, NaN — never +Inf.
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(10, 1e-3, 20, 1e-3, 1e-6)));
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(10, 1e-3, 20, 1e-2, 1e-6)));
  // Degenerate inputs: reversed iterations, zero / non-finite measures,
  // and epsilon <= 0 (the numerator's -Inf must not escape).
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(20, 1e-2, 10, 1e-3, 1e-6)));
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(10, 0.0, 20, 0.0, 1e-6)));
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(10, 1e-2, 20, 0.0, 1e-6)));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(10, inf, 20, 1e-3, 1e-6)));
  EXPECT_TRUE(std::isnan(EstimateItersToEpsilon(10, 1e-2, 20, 1e-3, 0.0)));
  // Rate estimate collapsing toward 1: the division blows up, the guard
  // catches it.
  EXPECT_FALSE(std::isinf(
      EstimateItersToEpsilon(10, 1e-3, 20, 1e-3 * (1.0 - 1e-16), 1e-9)));
}

TEST(StatusFile, SanitizeEtaMapsBadValuesToNan) {
  EXPECT_DOUBLE_EQ(obs::SanitizeEta(12.5), 12.5);
  EXPECT_DOUBLE_EQ(obs::SanitizeEta(0.0), 0.0);
  EXPECT_TRUE(std::isnan(obs::SanitizeEta(-1.0)));
  EXPECT_TRUE(
      std::isnan(obs::SanitizeEta(std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(
      std::isnan(obs::SanitizeEta(-std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(
      obs::SanitizeEta(std::numeric_limits<double>::quiet_NaN())));
}

TEST(StatusFile, EtaRendersAsNullNeverInfOrNan) {
  // Before two finite measures there is no ETA estimate.
  const obs::StatusFileWriter writer("", 1e-6);
  const std::string json = writer.LatestJson();
  EXPECT_NE(json.find("\"eta_iterations\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"eta_seconds\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  // And the rendered line honors the flat-JSON contract.
  EXPECT_EQ(obs::ParseTraceLine(json).Type(), "status");
}

TEST(StatusFile, PathlessWriterServesLatestJsonWithoutFileWrites) {
  obs::StatusFileWriter writer("", /*epsilon=*/1e-6,
                               /*min_interval_seconds=*/0.0);
  // Valid from t=0, before any check fires.
  auto ev0 = obs::ParseTraceLine(writer.LatestJson());
  EXPECT_EQ(ev0.strings.at("phase"), "starting");

  IterationEvent ev;
  ev.iteration = 4;
  ev.measure_defined = true;
  ev.measure = 1e-3;
  ev.checks_compared = 1;
  writer.OnCheck(ev);
  auto ev1 = obs::ParseTraceLine(writer.LatestJson());
  EXPECT_EQ(ev1.strings.at("phase"), "iterating");
  EXPECT_EQ(ev1.Number("iter"), 4.0);

  SeaResult converged;
  converged.status = SolveStatus::kConverged;
  writer.OnEnd(converged);
  auto ev2 = obs::ParseTraceLine(writer.LatestJson());
  EXPECT_EQ(ev2.strings.at("phase"), "terminated");
  EXPECT_EQ(ev2.strings.at("status"), "converged");
  EXPECT_EQ(writer.writes(), 0u);  // endpoint-only: no file ever written
}

TEST(StatusFile, EtaFromDivergingMeasuresIsNullInSnapshot) {
  obs::StatusFileWriter writer("", /*epsilon=*/1e-9,
                               /*min_interval_seconds=*/0.0);
  IterationEvent ev;
  ev.measure_defined = true;
  ev.iteration = 1;
  ev.measure = 1e-3;
  writer.OnCheck(ev);
  ev.iteration = 2;
  ev.measure = 1e-2;  // diverging: no contraction, ETA must be null
  writer.OnCheck(ev);
  const std::string json = writer.LatestJson();
  EXPECT_NE(json.find("\"eta_iterations\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(Metrics, PrometheusSanitizesHostileNames) {
  obs::MetricsRegistry reg;
  reg.GetCounter("9starts.with-digit").Add(1);
  reg.GetGauge("weird name{with}\"quotes\"").Set(2.0);
  std::ostringstream out;
  obs::WritePrometheus(out, reg.Snapshot());
  const std::string text = out.str();
  // Leading digit gains a '_' prefix; every hostile byte maps to '_'.
  EXPECT_NE(text.find("_9starts_with_digit_total 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("weird_name_with__quotes_ 2\n"), std::string::npos)
      << text;
  // Conformance: every non-comment line is "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const char c = line[0];
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                c == '_' || c == ':')
        << "bad leading char in: " << line;
  }
}

TEST(Metrics, PrometheusEmitsHelpForCataloguedMetrics) {
  obs::MetricsRegistry reg;
  reg.GetCounter("sea.iterations").Add(3);
  std::ostringstream out;
  obs::WritePrometheus(out, reg.Snapshot());
  const std::string text = out.str();
  const std::size_t help = text.find("# HELP sea_iterations_total ");
  const std::size_t type = text.find("# TYPE sea_iterations_total counter");
  ASSERT_NE(help, std::string::npos) << text;
  ASSERT_NE(type, std::string::npos) << text;
  EXPECT_LT(help, type);  // HELP precedes TYPE per the exposition format
}

TEST(SolveLog, WideEventRoundTripsThroughTheTraceReader) {
  obs::SolveWideEvent event;
  event.mode = "fixed";
  event.rows = 40;
  event.cols = 30;
  event.epsilon = 1e-4;
  event.criterion = "residual_rel";
  event.options_fingerprint = 0xDEADBEEFCAFEF00Dull;
  event.status = "converged";
  event.exit_code = 0;
  event.iterations = 123;
  event.final_residual = 3.5e-5;
  event.wall_seconds = 0.25;
  event.recoveries = 2;
  event.recovery_rungs = {1, 3};
  event.peak_rss_bytes = 1 << 20;

  const std::string line = obs::RenderWideEvent(event);
  // Strict parse: the wide event honors the flat-JSON contract, including
  // the rung list (a comma string, not a nested array).
  const auto ev = obs::ParseTraceLine(line);
  EXPECT_EQ(ev.Type(), "solve");
  EXPECT_EQ(ev.Number("schema"), obs::kTelemetrySchemaVersion);
  EXPECT_EQ(ev.strings.at("status"), "converged");
  EXPECT_EQ(ev.strings.at("mode"), "fixed");
  EXPECT_EQ(ev.strings.at("options_fingerprint"), "deadbeefcafef00d");
  EXPECT_EQ(ev.strings.at("recovery_rungs"), "1,3");
  EXPECT_EQ(ev.Number("rows"), 40.0);
  EXPECT_EQ(ev.Number("iterations"), 123.0);
  EXPECT_EQ(ev.Number("exit_code"), 0.0);
  EXPECT_DOUBLE_EQ(ev.Number("final_residual"), 3.5e-5);
  EXPECT_FALSE(ev.Has("error"));  // only present on failed invocations

  event.error = "resume rejected";
  EXPECT_EQ(obs::ParseTraceLine(obs::RenderWideEvent(event))
                .strings.at("error"),
            "resume rejected");
}

TEST(SolveLog, NonFiniteResultFieldsRenderAsNull) {
  obs::SolveWideEvent event;
  event.status = "stalled";
  event.final_residual = std::numeric_limits<double>::quiet_NaN();
  event.objective = std::numeric_limits<double>::infinity();
  const std::string line = obs::RenderWideEvent(event);
  EXPECT_NE(line.find("\"final_residual\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"objective\":null"), std::string::npos) << line;
  EXPECT_EQ(obs::ParseTraceLine(line).Type(), "solve");
}

TEST(SolveLog, WriterAppendsOneLinePerEmit) {
  const std::string path = TempPath("solve_log_append.jsonl");
  std::filesystem::remove(path);
  obs::SolveLogWriter writer(path);
  obs::SolveWideEvent event;
  event.status = "converged";
  ASSERT_TRUE(writer.Emit(event));
  event.status = "cancelled";
  event.exit_code = 6;
  ASSERT_TRUE(writer.Emit(event));
  EXPECT_EQ(writer.emitted(), 2u);

  const auto events = obs::ReadTraceJsonl(path);  // strict mode
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].strings.at("status"), "converged");
  EXPECT_EQ(events[1].strings.at("status"), "cancelled");
  EXPECT_EQ(events[1].Number("exit_code"), 6.0);
  std::filesystem::remove(path);
}

TEST(SolveLog, EmptyPathDisablesTheWriter) {
  obs::SolveLogWriter writer("");
  obs::SolveWideEvent event;
  EXPECT_TRUE(writer.Emit(event));
  EXPECT_EQ(writer.emitted(), 0u);
}

}  // namespace
}  // namespace sea
