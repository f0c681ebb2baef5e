#include "obs/trace_sink.hpp"

#include "obs/json_export.hpp"
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

JsonlTraceSink::JsonlTraceSink(const std::string& path) : out_(path) {
  SEA_CHECK_MSG(out_.good(), "cannot open trace file for writing: " + path);
}

void JsonlTraceSink::WriteLine(const std::string& line) {
  if (write_failed_) return;
  SEA_FAILPOINT_SITE("sea.obs.trace_write")
  if (fail::Triggered("sea.obs.trace_write"))
    out_.setstate(std::ios::badbit);
  out_ << line << '\n';
  if (!out_.good()) {
    write_failed_ = true;  // degrade: drop the trace, never the solve
    return;
  }
  ++events_written_;
}

}  // namespace sea::obs
