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

std::string RenderStatusJson(const StatusSnapshot& snap) {
  JsonObj obj;
  obj.Field("schema", kTelemetrySchemaVersion)
      .Field("type", "status")
      .Field("phase", snap.phase);
  if (*snap.status != '\0') obj.Field("status", snap.status);
  obj.Field("iter", snap.iteration)
      .Field("measure_defined", snap.measure_defined)
      .Field("measure", snap.measure_defined ? snap.measure : kNan)
      .Field("converged", snap.converged)
      .Field("checks_compared", snap.checks_compared)
      .Field("epsilon", snap.epsilon)
      // NaN renders as null: "no estimate yet" is distinguishable from 0.
      .Field("eta_iterations", snap.eta_iterations)
      .Field("eta_seconds", snap.eta_seconds)
      .Field("elapsed_seconds", snap.elapsed_seconds)
      .Field("row_phase_seconds", snap.row_phase_seconds)
      .Field("col_phase_seconds", snap.col_phase_seconds)
      .Field("check_phase_seconds", snap.check_phase_seconds)
      .Field("recoveries", snap.recoveries);
  if (*snap.last_recovery_rung != '\0')
    obj.Field("last_recovery_rung", snap.last_recovery_rung)
        .Field("last_recovery_iter", snap.last_recovery_iteration);
  return obj.Str();
}

StatusFileWriter::StatusFileWriter(std::string path, double epsilon,
                                   double min_interval_seconds)
    : path_(std::move(path)),
      epsilon_(epsilon),
      min_interval_(min_interval_seconds),
      eta_iterations_(kNan) {
  // /statusz must answer before the first check fires.
  latest_json_ = RenderStatusJson(BuildSnapshot(last_event_, "starting", ""));
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
  if (Publish(ev, "iterating", "")) last_write_seconds_ = now;
}

void StatusFileWriter::OnEnd(const SeaResult& result) {
  Publish(last_event_, "terminated", sea::ToString(result.status));
}

void StatusFileWriter::OnRecovery(std::size_t iteration, std::uint8_t rung,
                                  std::uint64_t recovered) {
  recovered_count_ = recovered;
  last_recovery_rung_ = RecoveryRungName(rung);
  last_recovery_iteration_ = iteration;
  // Bypass the throttle: a rescue must be visible live, not a throttle
  // interval later.
  if (Publish(last_event_, "recovering", ""))
    last_write_seconds_ = clock_.Seconds();
}

StatusSnapshot StatusFileWriter::BuildSnapshot(const IterationEvent& ev,
                                               const char* phase,
                                               const char* status) const {
  const double elapsed = clock_.Seconds();
  StatusSnapshot snap;
  snap.phase = phase;
  snap.status = status;
  snap.iteration = static_cast<std::uint64_t>(ev.iteration);
  snap.measure_defined = ev.measure_defined;
  snap.measure = ev.measure;
  snap.converged = ev.converged;
  snap.checks_compared = static_cast<std::uint64_t>(ev.checks_compared);
  snap.epsilon = epsilon_;
  snap.eta_iterations = SanitizeEta(eta_iterations_);
  // Seconds-per-iteration so far scales the iteration ETA to wall time.
  snap.eta_seconds = SanitizeEta(
      ev.iteration > 0
          ? snap.eta_iterations * (elapsed / static_cast<double>(ev.iteration))
          : kNan);
  snap.elapsed_seconds = elapsed;
  snap.row_phase_seconds = ev.row_phase_seconds;
  snap.col_phase_seconds = ev.col_phase_seconds;
  snap.check_phase_seconds = ev.check_phase_seconds;
  snap.recoveries = recovered_count_;
  snap.last_recovery_rung = last_recovery_rung_;
  snap.last_recovery_iteration =
      static_cast<std::uint64_t>(last_recovery_iteration_);
  return snap;
}

bool StatusFileWriter::Publish(const IterationEvent& ev, const char* phase,
                               const char* status) {
  const std::string line = RenderStatusJson(BuildSnapshot(ev, phase, status));
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
