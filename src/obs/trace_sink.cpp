#include "obs/trace_sink.hpp"

#include <cmath>
#include <ostream>

#include "core/checkpoint.hpp"
#include "core/options.hpp"
#include "obs/json_export.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/failpoint.hpp"

namespace sea::obs {

std::string ToJsonLine(const IterationEvent& ev) {
  return JsonObj()
      .Field("schema", kTelemetrySchemaVersion)
      .Field("type", "check")
      .Field("iter", ev.iteration)
      .Field("measure", ev.measure)
      .Field("measure_defined", ev.measure_defined)
      .Field("converged", ev.converged)
      .Field("checks_compared", ev.checks_compared)
      .Field("row_seconds", ev.row_phase_seconds)
      .Field("col_seconds", ev.col_phase_seconds)
      .Field("check_seconds", ev.check_phase_seconds)
      .Field("flops_delta", ev.ops_delta.flops)
      .Field("comparisons_delta", ev.ops_delta.comparisons)
      .Field("breakpoints_delta", ev.ops_delta.breakpoints)
      .Field("flops_total", ev.ops_total.flops)
      .Field("comparisons_total", ev.ops_total.comparisons)
      .Field("breakpoints_total", ev.ops_total.breakpoints)
      .Str();
}

std::string ToJsonLine(const OuterStepEvent& ev) {
  return JsonObj()
      .Field("schema", kTelemetrySchemaVersion)
      .Field("type", "outer")
      .Field("iter", ev.outer_iteration)
      .Field("change", ev.change)
      .Field("converged", ev.converged)
      .Field("inner_iterations", ev.inner_iterations)
      .Field("inner_iterations_total", ev.inner_iterations_total)
      .Field("linearize_seconds", ev.linearize_seconds)
      .Str();
}

JsonlTraceSink::JsonlTraceSink(const std::string& path,
                               std::size_t ring_capacity)
    : ring_(ring_capacity == 0 ? 1 : ring_capacity) {
  if (path.empty()) return;
  out_.open(path);
  SEA_CHECK_MSG(out_.good(), "cannot open trace file for writing: " + path);
}

void JsonlTraceSink::OnBegin(const SeaOptions& opts) {
  Event("begin", 0, static_cast<double>(opts.max_iterations));
}

void JsonlTraceSink::OnResume(const CheckpointState& ck) {
  Event("resume", static_cast<std::size_t>(ck.iteration), ck.final_residual);
}

void JsonlTraceSink::OnGuardrail(Guardrail kind, std::size_t iteration,
                                 double value) {
  static constexpr const char* kNames[] = {"breakdown", "stall", "cancel",
                                           "budget"};
  Event(kNames[static_cast<std::size_t>(kind)], iteration, value);
}

void JsonlTraceSink::OnCheck(const IterationEvent& ev) {
  if (ev.measure_defined && std::isfinite(ev.measure)) {
    have_good_ = true;
    last_good_iteration_ = ev.iteration;
    last_good_measure_ = ev.measure;
  }
  Emit(ToJsonLine(ev));
}

void JsonlTraceSink::OnEnd(const SeaResult& result) {
  Event("termination", result.iterations, result.final_residual);
  if (out_.is_open()) out_.flush();
  last_result_ = result;
  const SolveStatus s = result.status;
  if (!dump_path_.empty() &&
      (s == SolveStatus::kStalled || s == SolveStatus::kNumericalBreakdown ||
       s == SolveStatus::kCancelled || s == SolveStatus::kTimeBudgetExceeded))
    dumped_ = WritePostmortem(dump_path_);
}

void JsonlTraceSink::Event(const char* kind, std::size_t iteration,
                           double value) {
  Emit(JsonObj()
           .Field("type", "event")
           .Field("kind", kind)
           .Field("t", clock_.Seconds())
           .Field("iter", iteration)
           .Field("value", value)
           .Str());
}

void JsonlTraceSink::Emit(std::string line) {
  if (out_.is_open() && !write_failed_) {
    SEA_FAILPOINT_SITE("sea.obs.trace_write")
    if (fail::Triggered("sea.obs.trace_write"))
      out_.setstate(std::ios::badbit);
    out_ << line << '\n';
    if (out_.good()) {
      ++events_written_;
    } else {
      write_failed_ = true;  // degrade: drop the trace, never the solve
    }
  }
  ring_[recorded_ % ring_.size()] = std::move(line);
  ++recorded_;
}

bool JsonlTraceSink::WritePostmortem(const std::string& path) const {
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
             .Field("status", sea::ToString(last_result_.status))
             .Field("iterations", last_result_.iterations)
             .Field("final_residual", last_result_.final_residual)
             .Field("wall_seconds", last_result_.wall_seconds)
             .Field("recovered", last_result_.recovered_count)
             .Field("events_recorded", recorded_)
             .Field("events_dropped", recorded_ - kept)
             .Field("capacity", ring_.size())
             .Str()
      << '\n';
    if (have_good_) {
      f << JsonObj()
               .Field("type", "last_good")
               .Field("iter", last_good_iteration_)
               .Field("measure", last_good_measure_)
               .Str()
        << '\n';
    }
    for (std::size_t k = recorded_ - kept; k < recorded_; ++k)
      f << ring_[k % ring_.size()] << '\n';
  });
}

}  // namespace sea::obs
