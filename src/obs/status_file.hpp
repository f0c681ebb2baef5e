// Live solve introspection via an atomically-replaced status file and the
// /statusz endpoint (docs/OBSERVABILITY.md, "Live status file").
//
// A long-running solve is a black box to the outside world until it
// returns. StatusFileWriter, an engine observer, receives the per-check
// IterationEvents and maintains a single-line flat-JSON snapshot —
// iteration, stopping measure, phase seconds, and an ETA extrapolated from
// the geometric convergence rate of the last two defined measures
// (core/stopping.hpp, EstimateItersToEpsilon). Construction and publication
// are split:
//
//   * BuildSnapshot() -> StatusSnapshot: the point-in-time struct, with
//     the ETA already sanitized (never Inf/negative — NaN means "no
//     estimate", rendered as JSON null);
//   * RenderStatusJson(snapshot): the one serializer, so the status FILE
//     and the /statusz ENDPOINT emit byte-identical schemas;
//   * the writer itself throttles file writes to min_interval_seconds
//     (first check and termination always write), replaces the file
//     atomically (temp + rename, support/atomic_file.hpp), and keeps the
//     latest rendered line for LatestJson() — which the telemetry
//     server's handler threads read under the writer's lock while the
//     solve thread keeps checking.
//
// A path-less writer (path == "") skips the file entirely and only serves
// LatestJson() — how `sea_solve --listen` exposes /statusz without
// requiring --status-file. Attach it through SeaOptions::observers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/engine_observer.hpp"
#include "support/stopwatch.hpp"

namespace sea::obs {

// Point-in-time view of a running solve; the schema behind both the
// --status-file line and /statusz. Doubles may be NaN ("no value yet"),
// which RenderStatusJson emits as null — never Inf/NaN text.
struct StatusSnapshot {
  const char* phase = "starting";  // "starting"/"iterating"/"recovering"/
                                   // "terminated"
  const char* status = "";         // SolveStatus name once terminated
  std::uint64_t iteration = 0;
  bool measure_defined = false;
  double measure = 0.0;
  bool converged = false;
  std::uint64_t checks_compared = 0;
  double epsilon = 0.0;
  double eta_iterations = 0.0;  // NaN = no estimate
  double eta_seconds = 0.0;     // NaN = no estimate
  double elapsed_seconds = 0.0;
  double row_phase_seconds = 0.0;
  double col_phase_seconds = 0.0;
  double check_phase_seconds = 0.0;
  std::uint64_t recoveries = 0;
  const char* last_recovery_rung = "";  // "" = never recovered
  std::uint64_t last_recovery_iteration = 0;
};

// The single serializer for status snapshots (single-line flat JSON).
std::string RenderStatusJson(const StatusSnapshot& snap);

// ETA sanitizer: raw geometric-rate estimates can be Inf (rate estimate
// collapsing toward 1) or negative (clock skew in the seconds scaling);
// a dashboard must see null, not "inf". Finite non-negative values pass
// through; everything else becomes NaN. Exposed for tests.
double SanitizeEta(double eta);

class StatusFileWriter final : public EngineObserver {
 public:
  // `epsilon` is the solve's stopping tolerance (feeds the ETA model).
  // An empty `path` disables the file and keeps only LatestJson().
  StatusFileWriter(std::string path, double epsilon,
                   double min_interval_seconds = 0.05);

  // Engine hooks (solve thread only).
  void OnCheck(const IterationEvent& ev) override;
  void OnEnd(const SeaResult& result) override;
  // Recovery-ladder transition (docs/ROBUSTNESS.md): recorded into every
  // later snapshot and written through immediately — a rescue is exactly
  // the moment a dashboard must not be a throttle interval behind.
  void OnRecovery(std::size_t iteration, std::uint8_t rung,
                  std::uint64_t recovered) override;

  // Latest rendered snapshot line — what /statusz serves. Thread-safe
  // against the solve thread; before the first check it renders a
  // "starting" snapshot so the endpoint is valid from t=0.
  std::string LatestJson() const;

  const std::string& path() const { return path_; }
  std::size_t writes() const { return writes_; }

 private:
  StatusSnapshot BuildSnapshot(const IterationEvent& ev, const char* phase,
                               const char* status) const;
  bool Publish(const IterationEvent& ev, const char* phase,
               const char* status);

  std::string path_;
  double epsilon_;
  double min_interval_;
  Stopwatch clock_;
  double last_write_seconds_ = -1.0;
  std::size_t writes_ = 0;
  // Previous defined (iteration, measure) pair for the rate estimate.
  std::size_t prev_iteration_ = 0;
  double prev_measure_ = 0.0;
  bool have_prev_ = false;
  double eta_iterations_ = 0.0;  // NaN until estimable
  IterationEvent last_event_;
  // Recovery-ladder surface: cumulative rescues + the latest rung.
  std::uint64_t recovered_count_ = 0;
  const char* last_recovery_rung_ = "";  // RecoveryRungName literal
  std::size_t last_recovery_iteration_ = 0;
  // Latest rendered line, shared with the /statusz handler threads.
  mutable std::mutex latest_mu_;
  std::string latest_json_;
};

}  // namespace sea::obs
