// In-memory flight recorder for solver postmortems (docs/ROBUSTNESS.md,
// docs/OBSERVABILITY.md "Flight recorder").
//
// The guardrail statuses (stalled, numerical-breakdown, cancelled,
// time-budget-exceeded) used to surface as a bare enum with no evidence
// trail. The FlightRecorder keeps a fixed-capacity ring of recent engine
// events (begin/check/breakdown/stall/guardrail/termination) plus a
// last-good-iterate summary; when a solve terminates in one of the four
// guardrail failure classes and a dump path is set, it writes the ring
// atomically (temp file + rename) to a JSONL postmortem that the flat trace
// parser (obs/trace_reader.hpp) can read back.
//
// Recording is O(1) per event into preallocated storage, single-threaded
// (the engine records only from the solve thread, never inside a sweep),
// and the ring survives across chained solves (general SEA's inner runs),
// so the postmortem shows the events leading up to the failure even when
// the failing solve was warm-started. It is an engine observer
// (core/engine_observer.hpp): attach it through SeaOptions::observers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/engine_observer.hpp"
#include "core/solve_status.hpp"
#include "support/stopwatch.hpp"

namespace sea::obs {

class FlightRecorder final : public EngineObserver {
 public:
  explicit FlightRecorder(std::size_t capacity = 256);

  // Enables the automatic postmortem dump on guardrail termination.
  void SetDumpPath(std::string path) { dump_path_ = std::move(path); }
  const std::string& dump_path() const { return dump_path_; }

  // Appends one ring event; `kind` is a string literal, serialized as is.
  // The hooks record begin (value = max_iterations), check (the measure,
  // NaN when undefined), breakdown / stall (the measure), cancel, budget
  // (elapsed seconds), recovery (the rung), resume (the checkpoint's
  // residual), and termination (the final residual).
  void Record(const char* kind, std::size_t iteration, double value);

  // Engine hooks (solve thread only).
  void OnBegin(const SeaOptions& opts) override;
  void OnResume(const CheckpointState& ck) override;
  void OnGuardrail(Guardrail kind, std::size_t iteration,
                   double value) override {
    static constexpr const char* kNames[] = {"breakdown", "stall", "cancel",
                                             "budget"};
    Record(kNames[static_cast<std::size_t>(kind)], iteration, value);
  }
  void OnGoodIterate(std::size_t iteration, double measure) override {
    last_good_iteration_ = iteration;
    last_good_measure_ = measure;
    have_good_ = true;
  }
  void OnRecovery(std::size_t iteration, std::uint8_t rung,
                  std::uint64_t /*recovered*/) override {
    Record("recovery", iteration, static_cast<double>(rung));
  }
  void OnCheck(const IterationEvent& ev) override {
    Record("check", ev.iteration,
           ev.measure_defined ? ev.measure
                              : std::numeric_limits<double>::quiet_NaN());
  }
  // Records the termination event and, when the status is one of the four
  // guardrail failure classes and a dump path is set, writes the
  // postmortem. The header carries the run's recovery-ladder rescue count
  // ("the ladder rescued N trips before this one ended the run").
  void OnEnd(const SeaResult& result) override;

  // Writes the postmortem JSONL (header, last-good summary, ring events
  // oldest to newest) atomically. Fail-soft: returns false and leaves any
  // existing file untouched on a write failure (failpoint
  // sea.obs.postmortem_write forces that path).
  bool WritePostmortem(const std::string& path) const;

  std::size_t capacity() const { return ring_.size(); }
  std::size_t recorded() const { return recorded_; }
  bool dumped() const { return dumped_; }

 private:
  struct Event {
    double seconds = 0.0;  // since recorder construction
    const char* kind = "";
    std::size_t iteration = 0;
    double value = 0.0;
  };

  std::vector<Event> ring_;
  std::size_t recorded_ = 0;  // total events ever recorded
  Stopwatch clock_;           // one time base across chained solves
  std::string dump_path_;
  SolveStatus last_status_ = SolveStatus::kMaxIterations;
  double wall_seconds_ = 0.0;
  std::size_t iterations_ = 0;
  double final_residual_ = 0.0;
  std::uint64_t recovered_ = 0;
  std::size_t last_good_iteration_ = 0;
  double last_good_measure_ = 0.0;
  bool have_good_ = false;
  bool dumped_ = false;
};

}  // namespace sea::obs
