// Live solve introspection via an atomically-replaced status file and the
// /statusz endpoint (docs/OBSERVABILITY.md, "Live status file").
//
// StatusFileWriter, an engine observer, renders a single-line flat-JSON
// snapshot from the latest IterationEvent plus its own state: an ETA from
// the geometric convergence rate of the last two defined measures
// (EstimateItersToEpsilon, core/stopping.hpp; null when there is none) and
// the recovery-ladder count and rung. One renderer feeds both the file and
// /statusz. File writes are throttled to min_interval_seconds (first check
// and termination always write) and replace the file atomically
// (support/atomic_file.hpp); LatestJson() serves the newest line to the
// telemetry server's handler threads under the writer's lock. A path-less
// writer (path == "") only serves LatestJson(), which is how
// `sea_solve --listen` exposes /statusz without --status-file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/engine_observer.hpp"
#include "support/stopwatch.hpp"

namespace sea::obs {

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
  // Renders the snapshot of last_event_ (the one serializer: NaN doubles
  // render as null, never Inf/NaN text).
  std::string Render(const char* phase, const char* status) const;
  bool Publish(const char* phase, const char* status);

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
