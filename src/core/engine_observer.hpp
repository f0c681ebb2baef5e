// The engine's event stream (docs/OBSERVABILITY.md, "Engine observer").
//
// The JSONL trace (with its postmortem ring), metrics, status file, and
// progress printers are all views of the events the iteration engine and
// general SEA's outer loop emit. Each event goes to every
// SeaOptions::observers entry in list order, on the solve thread (never
// inside a sweep). Hooks default to no-ops; an empty list costs nothing.
//
// Per solve: OnBegin, OnResume when continuing from a checkpoint, then per
// check any of OnGuardrail / OnRecovery followed by OnCheck (a cancel or
// budget poll ends the loop instead), OnCheckpointWrite after each
// checkpoint attempt, and OnEnd. General SEA adds one OnOuterStep per
// projection step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "support/op_counter.hpp"

namespace sea {

struct SeaOptions;
struct SeaResult;
struct CheckpointState;

// Snapshot of one check iteration: the residual trajectory, phase times,
// and op deltas.
struct IterationEvent {
  std::size_t iteration = 0;
  // False on the first kXChange check, where no previous iterate exists yet
  // and the measure has no value.
  bool measure_defined = false;
  double measure = 0.0;  // active stopping measure, valid if measure_defined
  bool converged = false;
  // Checks whose measure had a defined value so far (== the number of
  // events with measure_defined, including this one).
  std::size_t checks_compared = 0;
  // Cumulative per-phase wall times so far.
  double row_phase_seconds = 0.0;
  double col_phase_seconds = 0.0;
  double check_phase_seconds = 0.0;
  // Operation counts: since the previous event (delta, including this
  // check's own verification cost) and since the start of the solve.
  OpCounts ops_delta;
  OpCounts ops_total;
};

// One projection step of general SEA (paper Section 3.2, Figure 4).
struct OuterStepEvent {
  std::size_t outer_iteration = 0;
  double change = 0.0;  // max |x^t - x^{t-1}| after this step
  bool converged = false;
  std::size_t inner_iterations = 0;        // this step's inner solve
  std::size_t inner_iterations_total = 0;  // cumulative across steps
  double linearize_seconds = 0.0;          // cumulative matvec-phase wall
};

// Guardrail trips (docs/ROBUSTNESS.md). The event value is the measure for
// kBreakdown / kStall, 0 for kCancel, and elapsed wall seconds for kBudget.
enum class Guardrail : std::uint8_t { kBreakdown, kStall, kCancel, kBudget };

// Stable names for the recovery-ladder rungs (metrics suffixes, status-file
// field, docs/ROBUSTNESS.md).
inline const char* RecoveryRungName(std::uint8_t rung) {
  static constexpr const char* kNames[] = {"unknown", "restore", "damp",
                                           "restart"};
  return rung <= 3 ? kNames[rung] : "unknown";
}

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void OnBegin(const SeaOptions& /*opts*/) {}
  // The run continues from checkpoint `ck` at iteration ck.iteration + 1.
  virtual void OnResume(const CheckpointState& /*ck*/) {}
  virtual void OnGuardrail(Guardrail /*kind*/, std::size_t /*iteration*/,
                           double /*value*/) {}
  // A recovery-ladder rescue on `rung`; `recovered` counts the run's
  // rescues so far, this one included.
  virtual void OnRecovery(std::size_t /*iteration*/, std::uint8_t /*rung*/,
                          std::uint64_t /*recovered*/) {}
  virtual void OnCheckpointWrite(bool /*ok*/) {}
  virtual void OnCheck(const IterationEvent& /*ev*/) {}
  virtual void OnOuterStep(const OuterStepEvent& /*ev*/) {}
  // The engine returns `result` (everything but the primal recovery).
  virtual void OnEnd(const SeaResult& /*result*/) {}
};

// Adapts a callable to OnCheck (sea_solve --progress, tests).
template <typename F>
struct CheckObserver final : EngineObserver {
  explicit CheckObserver(F f) : fn(std::move(f)) {}
  void OnCheck(const IterationEvent& ev) override { fn(ev); }
  F fn;
};

}  // namespace sea
