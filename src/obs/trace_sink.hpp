// Structured run traces.
//
// JsonlTraceSink is the engine observer (core/engine_observer.hpp) that
// writes one line per convergence check of the shared iteration engine and
// one per projection step of general SEA's outer loop. It captures the
// convergence trajectory and phase accounting in a diffable, append-only
// format for cross-PR analysis. Attach via SeaOptions::observers.
//
// JSONL event schema (version 1, append-only; see docs/OBSERVABILITY.md):
//   check {"schema":1,"type":"check","iter":..,"measure":..,
//          "measure_defined":..,"converged":..,"checks_compared":..,
//          "row_seconds":..,"col_seconds":..,"check_seconds":..,
//          "flops_delta":..,"comparisons_delta":..,"breakpoints_delta":..,
//          "flops_total":..,"comparisons_total":..,"breakpoints_total":..}
//   outer {"schema":1,"type":"outer","iter":..,"change":..,"converged":..,
//          "inner_iterations":..,"inner_iterations_total":..,
//          "linearize_seconds":..}
#pragma once

#include <cstddef>
#include <fstream>
#include <string>

#include "core/engine_observer.hpp"

namespace sea::obs {

// Renders an event as a single-line JSON object (no trailing newline) —
// the serialization JsonlTraceSink writes, exposed for tests and tools.
std::string ToJsonLine(const IterationEvent& ev);
std::string ToJsonLine(const OuterStepEvent& ev);

// Appends one JSON object per line to a file. Throws InvalidArgument when
// the file cannot be opened. Flushes at the end of every engine solve.
//
// Mid-run write failures (disk full, pipe closed; injectable via the
// sea.obs.trace_write failpoint) degrade rather than abort the solve:
// the sink stops writing, write_failed() reports the condition, and
// events_written() counts only the lines that actually reached the stream.
// A trace is telemetry — losing it must never lose the solve.
class JsonlTraceSink final : public EngineObserver {
 public:
  explicit JsonlTraceSink(const std::string& path);

  void OnCheck(const IterationEvent& ev) override {
    WriteLine(ToJsonLine(ev));
  }
  void OnOuterStep(const OuterStepEvent& ev) override {
    WriteLine(ToJsonLine(ev));
  }
  void OnEnd(const SeaResult& /*result*/) override { out_.flush(); }

  std::size_t events_written() const { return events_written_; }
  bool write_failed() const { return write_failed_; }

 private:
  void WriteLine(const std::string& line);

  std::ofstream out_;
  std::size_t events_written_ = 0;
  bool write_failed_ = false;
};

}  // namespace sea::obs
