#include "obs/flight_recorder.hpp"

#include <ios>
#include <ostream>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/options.hpp"
#include "core/result.hpp"
#include "obs/json_export.hpp"
#include "support/atomic_file.hpp"
#include "support/failpoint.hpp"

namespace sea::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Record(const char* kind, std::size_t iteration,
                            double value) {
  Event& e = ring_[recorded_ % ring_.size()];
  e.seconds = clock_.Seconds();
  e.kind = kind;
  e.iteration = iteration;
  e.value = value;
  ++recorded_;
}

void FlightRecorder::OnBegin(const SeaOptions& opts) {
  Record("begin", 0, static_cast<double>(opts.max_iterations));
}

void FlightRecorder::OnResume(const CheckpointState& ck) {
  Record("resume", static_cast<std::size_t>(ck.iteration), ck.final_residual);
}

void FlightRecorder::OnEnd(const SeaResult& result) {
  Record("termination", result.iterations, result.final_residual);
  last_status_ = result.status;
  iterations_ = result.iterations;
  final_residual_ = result.final_residual;
  wall_seconds_ = result.wall_seconds;
  recovered_ = result.recovered_count;
  const SolveStatus s = result.status;
  const bool failure_class =
      s == SolveStatus::kStalled || s == SolveStatus::kNumericalBreakdown ||
      s == SolveStatus::kCancelled || s == SolveStatus::kTimeBudgetExceeded;
  if (failure_class && !dump_path_.empty())
    dumped_ = WritePostmortem(dump_path_);
}

bool FlightRecorder::WritePostmortem(const std::string& path) const {
  // Atomic publication + retry with backoff via the shared writer: readers
  // polling `path` see the old dump or the new one, never a torn write,
  // and a transient write failure gets another chance before the dump is
  // abandoned (the solve result is never at stake either way).
  support::AtomicFileWriter writer(support::RetryPolicy{3, 0.5, 4.0});
  return writer.Write(path, [&](std::ostream& f) {
    SEA_FAILPOINT_SITE("sea.obs.postmortem_write")
    if (fail::Triggered("sea.obs.postmortem_write"))
      f.setstate(std::ios::badbit);
    if (!f.good()) return;

    const std::size_t kept =
        recorded_ < ring_.size() ? recorded_ : ring_.size();
    f << JsonObj()
             .Field("schema", kTelemetrySchemaVersion)
             .Field("type", "postmortem")
             .Field("status", sea::ToString(last_status_))
             .Field("iterations", static_cast<std::uint64_t>(iterations_))
             .Field("final_residual", final_residual_)
             .Field("wall_seconds", wall_seconds_)
             .Field("recovered", recovered_)
             .Field("events_recorded", static_cast<std::uint64_t>(recorded_))
             .Field("events_dropped",
                    static_cast<std::uint64_t>(recorded_ - kept))
             .Field("capacity", static_cast<std::uint64_t>(ring_.size()))
             .Str()
      << '\n';
    if (have_good_) {
      f << JsonObj()
               .Field("type", "last_good")
               .Field("iter",
                      static_cast<std::uint64_t>(last_good_iteration_))
               .Field("measure", last_good_measure_)
               .Str()
        << '\n';
    }
    for (std::size_t k = recorded_ - kept; k < recorded_; ++k) {
      const Event& e = ring_[k % ring_.size()];
      f << JsonObj()
               .Field("type", "event")
               .Field("kind", e.kind)
               .Field("t", e.seconds)
               .Field("iter", static_cast<std::uint64_t>(e.iteration))
               .Field("value", e.value)
               .Str()
        << '\n';
    }
  });
}

}  // namespace sea::obs
