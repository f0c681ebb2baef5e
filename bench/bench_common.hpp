// Shared harness for the table/figure benches.
//
// Every bench binary accepts:
//   --quick              scaled-down sizes (CI smoke; full paper sizes default)
//   --json <path>        machine-readable results (default BENCH_<table>.json)
//   --json-truncate      start the JSON file fresh instead of appending
//   --profile-json <path> export the run's phase spans as Chrome trace JSON
//   --progress           stream the iteration engine's residual trajectory
//
// Finish() always writes the JSON document (the repository's perf
// trajectory diffs it across PRs). The file is append-mode JSONL: each run
// adds ONE line holding a full JSON document, so successive runs of the
// same bench form a time series that tools/bench_diff can compare (it
// defaults to the last two lines). Pass --json-truncate to reset the file.
// Schema (version 2; append-only — docs/OBSERVABILITY.md):
//   {"schema":2,"bench":"table1","quick":false,"host_threads":N,
//    "git_sha":"..","build_type":"Release","timestamp":"2026-01-01T00:00:00Z",
//    "wall_seconds":..,"cpu_seconds":..,"peak_rss_bytes":..,
//    "records":[{"experiment":..,"dataset":..,"metric":..,"measured":..,
//                "paper":..|null,"note":..}, ...],
//    "phases":[{"phase":"equilibrate.rows","count":..,"total_seconds":..,
//               "self_seconds":..,"mean_seconds":..,"max_seconds":..}, ...]}
// Measured values are rendered with round-trip precision, so the JSON
// carries exactly the doubles the printed table was formatted from. The
// phase breakdown comes from an obs::Profiler attached for the whole bench
// run by ParseArgs (obs/profiler.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "io/experiment_record.hpp"
#include "io/table_printer.hpp"

namespace sea::bench {

struct BenchOptions {
  bool quick = false;
  bool progress = false;
  bool json_truncate = false;
  std::string json_path;     // empty = BENCH_<table>.json in the working dir
  std::string profile_json;  // empty = no Chrome trace export
};

BenchOptions ParseArgs(int argc, char** argv);

// When BenchOptions::progress is set, attaches an engine observer that
// streams "tag: iter=... residual=..." lines to stderr (stdout carries the
// result tables). The observer lives until the process exits.
void MaybeAttachProgress(const BenchOptions& bench_opts, SeaOptions& opts,
                         const std::string& tag);

// Prints the bench banner: which paper table/figure this regenerates, the
// protocol line, and the host context.
void PrintHeader(const std::string& title, const std::string& protocol);

// Prints the log's paper-vs-measured table, appends one JSONL line to the
// machine-readable BENCH_<bench_name>.json,
// prints the run's per-phase profile table (the document's "phases"), and
// exports the Chrome trace when --profile-json was given.
void Finish(const ExperimentLog& log, const BenchOptions& opts,
            const std::string& bench_name);

// Renders the log as the BENCH json document (exposed for tests). Includes
// the phase breakdown of the profiler attached by ParseArgs, when any.
std::string BenchJson(const ExperimentLog& log, const BenchOptions& opts,
                      const std::string& bench_name);

// ---- Measured parallel speedup (Tables 6 and 9).

// What one solve reports to MeasureScaling: its wall time, whether it
// converged, and the work it did — every iteration count it reports and its
// solution, which must repeat bit for bit at every thread count.
struct ScalingRun {
  double wall_seconds = 0.0;
  bool converged = false;
  std::vector<std::size_t> iterations;
  std::vector<double> x;
};

// The paper's speedup and efficiency at one processor count.
struct PaperPoint {
  std::size_t n_procs;
  double speedup;
  double efficiency_pct;
};

// Solves once serially to warm up, then three times serially and three
// times on a ThreadPool(N) for each paper processor count N up to the
// host's thread count. Adds a table row per N: the median wall time T_N,
// S_N = T_1 / T_N and E_N = S_N / N beside the paper's values; a count
// above the host's threads prints "not measured". Logs wall_seconds_t<N>
// and speedup_p<N> records under `experiment`. Returns false, after saying
// why on stderr, when a run did not converge or did different work from the
// serial run (other iteration counts or solution bits): a speedup between
// such runs is meaningless.
bool MeasureScaling(const std::string& experiment, const std::string& name,
                    const std::vector<PaperPoint>& paper,
                    const std::function<ScalingRun(ThreadPool*)>& solve,
                    TablePrinter& table, ExperimentLog& log);

}  // namespace sea::bench
