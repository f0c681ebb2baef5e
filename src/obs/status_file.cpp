#include "obs/status_file.hpp"

#include <cmath>
#include <limits>
#include <ostream>
#include <utility>

#include "core/result.hpp"
#include "core/stopping.hpp"
#include "obs/json_export.hpp"
#include "support/atomic_file.hpp"

namespace sea::obs {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double SanitizeEta(double eta) {
  if (!std::isfinite(eta) || eta < 0.0) return kNan;
  return eta;
}

StatusFileWriter::StatusFileWriter(std::string path, double epsilon,
                                   double min_interval_seconds)
    : path_(std::move(path)),
      epsilon_(epsilon),
      min_interval_(min_interval_seconds),
      eta_iterations_(kNan) {
  // /statusz must answer before the first check fires.
  latest_json_ = Render("starting", "");
}

void StatusFileWriter::OnCheck(const IterationEvent& ev) {
  last_event_ = ev;
  if (ev.measure_defined && std::isfinite(ev.measure)) {
    if (have_prev_)
      eta_iterations_ = SanitizeEta(EstimateItersToEpsilon(
          prev_iteration_, prev_measure_, ev.iteration, ev.measure, epsilon_));
    prev_iteration_ = ev.iteration;
    prev_measure_ = ev.measure;
    have_prev_ = true;
  }
  const double now = clock_.Seconds();
  if (last_write_seconds_ >= 0.0 && now - last_write_seconds_ < min_interval_)
    return;  // throttled; the snapshot catches up at the next check
  if (Publish("iterating", "")) last_write_seconds_ = now;
}

void StatusFileWriter::OnEnd(const SeaResult& result) {
  Publish("terminated", sea::ToString(result.status));
}

void StatusFileWriter::OnRecovery(std::size_t iteration, std::uint8_t rung,
                                  std::uint64_t recovered) {
  recovered_count_ = recovered;
  last_recovery_rung_ = RecoveryRungName(rung);
  last_recovery_iteration_ = iteration;
  // Bypass the throttle: a rescue must be visible live, not a throttle
  // interval later.
  if (Publish("recovering", "")) last_write_seconds_ = clock_.Seconds();
}

std::string StatusFileWriter::Render(const char* phase,
                                     const char* status) const {
  const IterationEvent& ev = last_event_;
  const double elapsed = clock_.Seconds();
  // Seconds-per-iteration so far scales the iteration ETA to wall time.
  const double eta_seconds = SanitizeEta(
      ev.iteration > 0
          ? eta_iterations_ * (elapsed / static_cast<double>(ev.iteration))
          : kNan);
  JsonObj obj;
  obj.Field("schema", kTelemetrySchemaVersion)
      .Field("type", "status")
      .Field("phase", phase);
  if (*status != '\0') obj.Field("status", status);
  obj.Field("iter", ev.iteration)
      .Field("measure_defined", ev.measure_defined)
      .Field("measure", ev.measure_defined ? ev.measure : kNan)
      .Field("converged", ev.converged)
      .Field("checks_compared", ev.checks_compared)
      .Field("epsilon", epsilon_)
      // NaN renders as null: "no estimate yet" is distinguishable from 0.
      .Field("eta_iterations", eta_iterations_)
      .Field("eta_seconds", eta_seconds)
      .Field("elapsed_seconds", elapsed)
      .Field("row_phase_seconds", ev.row_phase_seconds)
      .Field("col_phase_seconds", ev.col_phase_seconds)
      .Field("check_phase_seconds", ev.check_phase_seconds)
      .Field("recoveries", recovered_count_);
  if (*last_recovery_rung_ != '\0')
    obj.Field("last_recovery_rung", last_recovery_rung_)
        .Field("last_recovery_iter", last_recovery_iteration_);
  return obj.Str();
}

bool StatusFileWriter::Publish(const char* phase, const char* status) {
  const std::string line = Render(phase, status);
  {
    std::lock_guard lk(latest_mu_);
    latest_json_ = line;
  }
  if (path_.empty()) return true;  // endpoint-only mode

  // Single attempt, no retry: a lost snapshot is superseded by the next
  // throttled one (unlike checkpoints/postmortems, which retry — see
  // support/atomic_file.hpp).
  support::AtomicFileWriter writer;
  if (!writer.Write(path_, [&](std::ostream& f) { f << line << '\n'; }))
    return false;
  ++writes_;
  return true;
}

std::string StatusFileWriter::LatestJson() const {
  std::lock_guard lk(latest_mu_);
  return latest_json_;
}

}  // namespace sea::obs
