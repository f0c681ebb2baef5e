// Structured run traces and solver postmortems (docs/OBSERVABILITY.md,
// "Trace JSONL schema" and "Flight recorder and postmortems").
//
// JsonlTraceSink is the engine observer (core/engine_observer.hpp) that
// renders every engine hook once, as one flat JSON line: a "check" line per
// convergence check, an "outer" line per general-SEA projection step, and
// an "event" line ({"type":"event","kind":..,"t":..,"iter":..,"value":..})
// for begin, resume, breakdown, stall, cancel, budget, recovery and
// termination. Each line goes to the trace file, when a path is given, and
// to a bounded ring of the newest lines that survives across chained
// solves. When a solve ends in a guardrail failure class (stalled,
// numerical-breakdown, cancelled, time-budget-exceeded) and a dump path is
// set, the ring is written atomically as the postmortem: a header, the
// last-good check, then the ring oldest first. All hooks run on the solve
// thread; attach via SeaOptions::observers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_observer.hpp"
#include "core/result.hpp"
#include "support/stopwatch.hpp"

namespace sea::obs {

// Renders an event as a single-line JSON object (no trailing newline) —
// the serialization JsonlTraceSink writes, exposed for tests and tools.
std::string ToJsonLine(const IterationEvent& ev);
std::string ToJsonLine(const OuterStepEvent& ev);

// Mid-run trace write failures (disk full, pipe closed; injectable via the
// sea.obs.trace_write failpoint) degrade rather than abort the solve: the
// sink stops writing the file, write_failed() reports the condition, and
// events_written() counts only the lines that reached the stream. The ring
// keeps recording. Telemetry must never lose the solve.
class JsonlTraceSink final : public EngineObserver {
 public:
  // `path` names the trace file; an empty path keeps the lines in the ring
  // only. Throws InvalidArgument when a named file cannot be opened.
  explicit JsonlTraceSink(const std::string& path,
                          std::size_t ring_capacity = 256);

  // Enables the automatic postmortem dump on guardrail termination.
  void SetDumpPath(std::string path) { dump_path_ = std::move(path); }

  void OnBegin(const SeaOptions& opts) override;
  void OnResume(const CheckpointState& ck) override;
  void OnGuardrail(Guardrail kind, std::size_t iteration,
                   double value) override;
  void OnRecovery(std::size_t iteration, std::uint8_t rung,
                  std::uint64_t /*recovered*/) override {
    Event("recovery", iteration, static_cast<double>(rung));
  }
  void OnCheck(const IterationEvent& ev) override;
  void OnOuterStep(const OuterStepEvent& ev) override { Emit(ToJsonLine(ev)); }
  // Emits the termination line, flushes the file, and dumps the postmortem
  // when the status is a guardrail failure class and a dump path is set.
  void OnEnd(const SeaResult& result) override;

  // Writes the postmortem JSONL atomically. Fail-soft: returns false and
  // leaves any existing file untouched on a write failure (failpoint
  // sea.obs.postmortem_write forces that path).
  bool WritePostmortem(const std::string& path) const;

  std::size_t events_written() const { return events_written_; }
  bool write_failed() const { return write_failed_; }
  std::size_t capacity() const { return ring_.size(); }
  std::size_t recorded() const { return recorded_; }  // lines ever ringed
  bool dumped() const { return dumped_; }

 private:
  void Event(const char* kind, std::size_t iteration, double value);
  void Emit(std::string line);

  std::ofstream out_;
  std::size_t events_written_ = 0;
  bool write_failed_ = false;
  std::vector<std::string> ring_;
  std::size_t recorded_ = 0;
  Stopwatch clock_;  // one time base across chained solves
  std::string dump_path_;
  bool dumped_ = false;
  SeaResult last_result_;  // the postmortem header's outcome
  // The last check with a finite measure.
  bool have_good_ = false;
  std::size_t last_good_iteration_ = 0;
  double last_good_measure_ = 0.0;
};

}  // namespace sea::obs
