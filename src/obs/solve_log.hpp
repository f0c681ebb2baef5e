// Wide-event solve log: one flat JSON line per solver invocation
// (docs/OBSERVABILITY.md, "Wide-event solve log").
//
// Metrics answer aggregate questions; traces answer per-iteration ones.
// The question a service operator actually asks — "which solves regressed
// after the rollout, and what did they have in common?" — wants one row
// per solve with EVERYTHING about it: problem shape, option fingerprint,
// backend, outcome, residuals, phase timings, recovery provenance, peak
// RSS. That is the wide-event pattern: no joins, no sessionizing, grep and
// a JSON parser suffice. `sea_solve --solve-log <path>` appends exactly
// one line per process exit — success, infeasible, cancelled, or thrown —
// and sea_serve will append one per request.
//
// Writing goes through AtomicFileWriter::Append (O_APPEND + flush, retry
// with backoff; failpoint `sea.support.atomic_append`), so concurrent
// invocations logging to the same file interleave at line granularity and
// a crash can only lose the in-flight line. A failed append degrades to a
// warning at the call site — the log must never take the solve down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "obs/json_export.hpp"

namespace sea::obs {

// Everything known about one finished (or failed) solve invocation. The
// field set is append-only, like every telemetry schema (the one removal,
// `sort`, left with the sort-policy choice; docs/OBSERVABILITY.md); NaN
// doubles render as null. Strings are free-form except `status`, which
// holds the SolveStatus name ("converged", "cancelled", ...) or "error" for
// failures outside the engine (bad usage, unreadable input).
struct SolveWideEvent {
  std::string tool = "sea_solve";
  std::string mode;           // solver variant / subcommand
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  double epsilon = 0.0;
  std::string criterion;
  std::uint64_t threads = 0;
  // FNV-1a over the option set that affects the numerics, rendered as hex
  // — two rows with equal fingerprints ran comparable configurations.
  std::uint64_t options_fingerprint = 0;

  std::string status;
  int exit_code = 0;
  std::uint64_t iterations = 0;
  std::uint64_t checks_compared = 0;
  double final_residual = 0.0;
  double objective = 0.0;
  double feasibility_max_abs = 0.0;
  double feasibility_max_rel = 0.0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double row_phase_seconds = 0.0;
  double col_phase_seconds = 0.0;
  double check_phase_seconds = 0.0;

  std::uint64_t recoveries = 0;
  std::vector<std::uint8_t> recovery_rungs;
  bool resumed = false;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t listen_port = 0;  // 0 = telemetry server not enabled
  // Serving-plane fields (sea_serve emits one event per request; empty /
  // zero for CLI invocations). cache_tier names the warm-cache outcome:
  // "cold", "exact" (replayed multipliers), or "warm" (nearby-tier warm
  // start); queue_seconds is time spent waiting in the admission queue.
  std::string cache_tier;
  double queue_seconds = 0.0;
  // Failure detail for invocations that never reached a normal engine
  // exit (usage/IO errors, rejected resume, pre-flight infeasibility).
  std::string error;
};

// Copies the engine result's fields (iterations through recovery_rungs,
// wall_seconds excepted: each caller times its own) into the event.
void SetResultFields(SolveWideEvent& event, const SeaResult& result);

// Renders the event as a single-line flat JSON document (no trailing
// newline). Split from the writer so tests can assert on bytes without
// touching the filesystem.
std::string RenderWideEvent(const SolveWideEvent& event);

class SolveLogWriter {
 public:
  // Events append to `path`; the file is created on first emit. An empty
  // path disables the writer (Emit returns true and does nothing).
  explicit SolveLogWriter(std::string path);

  // Appends one rendered line. Returns false when the append failed after
  // retries; the caller logs a warning and continues.
  bool Emit(const SolveWideEvent& event);

  std::uint64_t emitted() const { return emitted_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint64_t emitted_ = 0;
};

}  // namespace sea::obs
