#include "bench_common.hpp"

#include <algorithm>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine_observer.hpp"
#include "obs/json_export.hpp"
#include "obs/profiler.hpp"
#include "parallel/thread_pool.hpp"
#include "support/check.hpp"
#include "support/rusage.hpp"
#include "support/stopwatch.hpp"

#ifndef SEA_GIT_SHA
#define SEA_GIT_SHA "unknown"
#endif
#ifndef SEA_BUILD_TYPE
#define SEA_BUILD_TYPE "unknown"
#endif

namespace sea::bench {

namespace {

// Whole-run context created by ParseArgs: the wall/cpu baseline for the
// document's timing fields, the profiler whose spans become the
// document's phase breakdown (and the optional Chrome trace), and the
// --progress printers.
struct RunContext {
  Stopwatch wall;
  double cpu0 = ProcessCpuSeconds();
  obs::Profiler profiler;
  std::vector<std::unique_ptr<EngineObserver>> printers;
};
RunContext* g_run = nullptr;

std::string IsoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace

BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      opts.progress = true;
    } else if (std::strcmp(argv[i], "--json-truncate") == 0) {
      opts.json_truncate = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-json") == 0 && i + 1 < argc) {
      opts.profile_json = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--quick] [--progress] [--json <path>]"
                << " [--json-truncate] [--profile-json <path>]\n";
      std::exit(2);
    }
  }
  // Attach the whole-run profiler so every solve the bench performs lands
  // in the document's phase breakdown. Leaked intentionally: worker threads
  // may still hold buffer pointers at exit, and the process is ending.
  if (g_run == nullptr) {
    g_run = new RunContext();
    g_run->profiler.Attach();
  }
  return opts;
}

void MaybeAttachProgress(const BenchOptions& bench_opts, SeaOptions& opts,
                         const std::string& tag) {
  if (!bench_opts.progress) return;
  auto print = [tag](const IterationEvent& ev) {
    std::cerr << tag << ": iter=" << ev.iteration << " residual=";
    if (ev.measure_defined) {
      std::cerr << ev.measure;
    } else {
      std::cerr << "n/a";
    }
    std::cerr << " row_s=" << ev.row_phase_seconds
              << " col_s=" << ev.col_phase_seconds
              << " check_s=" << ev.check_phase_seconds;
    if (ev.converged) std::cerr << " (converged)";
    std::cerr << '\n';
  };
  g_run->printers.push_back(std::make_unique<CheckObserver<decltype(print)>>(
      std::move(print)));
  opts.observers.push_back(g_run->printers.back().get());
}

void PrintHeader(const std::string& title, const std::string& protocol) {
  std::cout << "==========================================================\n"
            << title << '\n'
            << protocol << '\n'
            << "host threads: " << std::thread::hardware_concurrency()
            << "  (paper testbed: IBM 3090-600E, VS FORTRAN opt(3))\n"
            << "==========================================================\n";
}

std::string BenchJson(const ExperimentLog& log, const BenchOptions& opts,
                      const std::string& bench_name) {
  obs::JsonArr records;
  for (const auto& r : log.records()) {
    obs::JsonObj rec;
    rec.Field("experiment", r.experiment)
        .Field("dataset", r.dataset)
        .Field("metric", r.metric)
        .Field("measured", r.measured);
    if (r.paper.has_value()) {
      rec.Field("paper", *r.paper);
    } else {
      rec.Raw("paper", "null");
    }
    rec.Field("note", r.note);
    records.Raw(rec.Str());
  }

  obs::JsonObj doc;
  doc.Field("schema", obs::kTelemetrySchemaVersion)
      .Field("bench", bench_name)
      .Field("quick", opts.quick)
      .Field("host_threads",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .Field("git_sha", SEA_GIT_SHA)
      .Field("build_type", SEA_BUILD_TYPE)
      .Field("timestamp", IsoTimestampUtc());
  if (g_run != nullptr) {
    doc.Field("wall_seconds", g_run->wall.Seconds())
        .Field("cpu_seconds", ProcessCpuSeconds() - g_run->cpu0);
  }
  doc.Field("peak_rss_bytes", support::PeakRssBytes());
  doc.Raw("records", records.Str());

  if (g_run != nullptr) {
    const auto stats =
        obs::SummarizeSpans(obs::ToRawSpans(g_run->profiler.Events()));
    obs::JsonArr phases;
    for (const auto& st : stats) {
      phases.Raw(obs::JsonObj()
                     .Field("phase", st.name)
                     .Field("count", st.count)
                     .Field("total_seconds", st.total_seconds)
                     .Field("self_seconds", st.self_seconds)
                     .Field("mean_seconds", st.mean_seconds)
                     .Field("max_seconds", st.max_seconds)
                     .Str());
    }
    doc.Raw("phases", phases.Str());
  }
  return doc.Str();
}

void Finish(const ExperimentLog& log, const BenchOptions& opts,
            const std::string& bench_name) {
  std::cout << '\n';
  log.Print(std::cout);

  const std::string json_path = opts.json_path.empty()
                                    ? "BENCH_" + bench_name + ".json"
                                    : opts.json_path;
  {
    // Append-mode JSONL: one document line per run (see header comment).
    const auto mode = opts.json_truncate
                          ? std::ios::out | std::ios::trunc
                          : std::ios::out | std::ios::app;
    std::ofstream f(json_path, mode);
    SEA_CHECK_MSG(f.good(),
                  "cannot open bench json for writing: " + json_path);
    f << BenchJson(log, opts, bench_name) << '\n';
  }
  std::cout << "\nbench json: " << json_path << '\n';
  if (g_run == nullptr) return;  // ParseArgs attaches the profiler

  // The same per-phase breakdown as the document's "phases" array.
  const auto spans = obs::ToRawSpans(g_run->profiler.Events());
  std::cout << '\n';
  obs::PrintProfileSummary(std::cout, obs::SummarizeSpans(spans),
                           obs::ProfileWallSeconds(spans));
  if (!opts.profile_json.empty()) {
    if (obs::WriteChromeTrace(opts.profile_json, spans, bench_name)) {
      std::cout << "profile trace: " << opts.profile_json << " ("
                << spans.size() << " spans, "
                << g_run->profiler.thread_count() << " threads)\n";
    } else {
      std::cerr << "warning: could not write profile trace to "
                << opts.profile_json << '\n';
    }
  }
  std::cout.flush();
}

bool MeasureScaling(const std::string& experiment, const std::string& name,
                    const std::vector<PaperPoint>& paper,
                    const std::function<ScalingRun(ThreadPool*)>& solve,
                    TablePrinter& table, ExperimentLog& log) {
  constexpr int kRepeats = 3;
  const std::size_t host_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const ScalingRun reference = solve(nullptr);  // also the warm-up
  bool ok = true;
  double t1 = 0.0;

  std::vector<PaperPoint> points = {{1, 1.0, 100.0}};
  points.insert(points.end(), paper.begin(), paper.end());
  for (const PaperPoint& pt : points) {
    const std::size_t n = pt.n_procs;
    const std::string paper_s = TablePrinter::Num(pt.speedup, 2);
    const std::string paper_e = TablePrinter::Num(pt.efficiency_pct, 2) + "%";
    if (n > host_threads) {
      const std::string why =
          "not measured (" + std::to_string(host_threads) + "-thread host)";
      table.AddRow({name, TablePrinter::Int(long(n)), why, "", paper_s, "",
                    paper_e});
      continue;
    }
    std::unique_ptr<ThreadPool> pool;
    if (n > 1) pool = std::make_unique<ThreadPool>(n);
    std::vector<double> seconds;
    for (int r = 0; r < kRepeats; ++r) {
      const ScalingRun run = solve(pool.get());
      const std::string tag = name + " at " + std::to_string(n) + " threads";
      if (!run.converged) {
        std::cerr << "FAIL: " << tag << " did not converge\n";
        ok = false;
      }
      if (run.iterations != reference.iterations) {
        std::cerr << "FAIL: " << tag << " ran other iteration counts than "
                  << "the serial run\n";
        ok = false;
      }
      if (run.x.size() != reference.x.size() ||
          std::memcmp(run.x.data(), reference.x.data(),
                      run.x.size() * sizeof(double)) != 0) {
        std::cerr << "FAIL: " << tag << " solution bits differ from the "
                  << "serial run\n";
        ok = false;
      }
      seconds.push_back(run.wall_seconds);
    }
    std::sort(seconds.begin(), seconds.end());
    const double tn = seconds[kRepeats / 2];
    if (n == 1) t1 = tn;
    const double speedup = t1 / tn;
    table.AddRow({name, TablePrinter::Int(long(n)), TablePrinter::Num(tn, 4),
                  TablePrinter::Num(speedup, 2), paper_s,
                  TablePrinter::Num(100.0 * speedup / double(n), 2) + "%",
                  paper_e});
    log.Add(experiment, name, "wall_seconds_t" + std::to_string(n), tn,
            std::nullopt, "median of 3");
    if (n > 1)
      log.Add(experiment, name, "speedup_p" + std::to_string(n), speedup,
              pt.speedup, "measured, median of 3");
  }
  return ok;
}

}  // namespace sea::bench
