// Crash-safe checkpoint/resume for the iteration engine
// (docs/ROBUSTNESS.md).
//
// The SEA iterate is compact, self-describing state: the dual multipliers
// (lambda, mu) determine the primal matrix in closed form, and the only
// other cross-iteration memory the engine keeps is the stopping-detector
// state (previous-check measure, stall streak, the kXChange snapshot) and
// the recovery-ladder position, plus, on elastic solves, the Anderson
// window (core/extrapolation.hpp). A CheckpointState captures exactly that,
// so a run restored from a checkpoint continues **bit-identically** to the
// uninterrupted run — at any thread count, sweep schedule, and kernel
// backend, because none of those affect the numerical trajectory (see
// docs/PARALLELISM.md and docs/KERNELS.md for why).
//
// On-disk format (version 2, native-endian, little on every supported
// target):
//
//   "SEACKPT\0"  8-byte magic
//   u32          format version
//   u32          stop criterion
//   u64          problem fingerprint (FNV-1a over mode/shape/data)
//   u64 m, u64 n
//   u64 iteration, u64 checks_compared, u64 stall_streak
//   f64 stall_prev, f64 final_residual
//   u8  have_snapshot, u8 recovery rung
//   u64 rung_attempts, u64 damp_iters_left, u64 recovered_count
//   u64 count + u8[]   recovery_rungs (provenance, one byte per rescue)
//   u64 count + f64[]  lambda
//   u64 count + f64[]  mu
//   u64 count + f64[]  snapshot (previous check's primal; kXChange only)
//   u64 extrapolations_accepted, u64 extrapolations_rejected
//   f64          accel_zeta (dual value at the last accepted point)
//   u64 count + f64[]  accel_f, accel_g (the window's last residual and
//                      output; empty outside elastic solves)
//   u64 count + f64[]  accel_df, accel_dg (its pairs, oldest first)
//   u32          CRC-32 of every preceding byte
//
// Version 2 added the extrapolation fields; a version-1 file is refused
// with kCheckpointVersionSkew.
//
// Writes are atomic (support::AtomicFileWriter tmp+rename) with retry +
// exponential backoff, so a crash mid-write leaves the previous checkpoint
// intact. The loader never crashes on hostile bytes: every defect comes
// back as a structured Diagnosis (kCheckpointMalformed /
// kCheckpointVersionSkew), and ValidateCheckpointFor reports
// kCheckpointMismatch when a well-formed checkpoint belongs to a different
// problem. `tools/checkpoint_info` pretty-prints any checkpoint file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/validate.hpp"
#include "support/atomic_file.hpp"

namespace sea {

inline constexpr std::uint32_t kCheckpointVersion = 2;

// Everything the engine + backend need to continue a run at iteration
// `iteration + 1` as if it had never stopped.
struct CheckpointState {
  // Identity: which problem this iterate belongs to.
  std::uint64_t fingerprint = 0;
  std::uint64_t m = 0;
  std::uint64_t n = 0;
  StopCriterion criterion = StopCriterion::kResidualRel;

  // Engine progress.
  std::uint64_t iteration = 0;
  std::uint64_t checks_compared = 0;
  double final_residual = 0.0;

  // Stall-detector state (docs/ROBUSTNESS.md "Stall detection").
  std::uint64_t stall_streak = 0;
  double stall_prev = 0.0;  // +inf until the first compared check

  // kXChange bookkeeping: whether a previous-check snapshot exists.
  bool have_snapshot = false;

  // Recovery-ladder position + provenance.
  std::uint8_t rung = 1;
  std::uint64_t rung_attempts = 0;
  std::uint64_t damp_iters_left = 0;
  std::uint64_t recovered_count = 0;
  std::vector<std::uint8_t> recovery_rungs;

  // Backend iterate: dual multipliers and, under kXChange, the previous
  // check's primal snapshot (dense: row-major n x m transposed layout;
  // sparse: nnz values in storage order — whatever the backend captured).
  std::vector<double> lambda;
  std::vector<double> mu;
  std::vector<double> snapshot;

  // Extrapolation (core/extrapolation.hpp): the safeguard's running tally
  // and the Anderson window — its last residual f and output g (n each, or
  // empty), its pairs (depth x n, oldest first) and the accepted zeta.
  std::uint64_t extrapolations_accepted = 0;
  std::uint64_t extrapolations_rejected = 0;
  double accel_zeta = 0.0;
  std::vector<double> accel_f, accel_g;
  std::vector<double> accel_df, accel_dg;
};

struct CheckpointLoadResult {
  CheckpointState state;  // meaningful only when ok()
  std::optional<Diagnosis> diagnosis;

  bool ok() const { return !diagnosis.has_value(); }
};

// Serialization. Decode rejects (with a Diagnosis, never a crash) bad
// magic, unsupported versions, truncation, CRC mismatches, and
// inconsistent vector lengths.
std::string EncodeCheckpoint(const CheckpointState& state);
CheckpointLoadResult DecodeCheckpoint(std::string_view bytes);

// Whole-file read + decode; unreadable files come back kCheckpointMalformed.
CheckpointLoadResult LoadCheckpoint(const std::string& path);

// Checks a decoded checkpoint against the problem about to be resumed:
// fingerprint, dimensions, and stop criterion must all match (the stopping
// measure is part of the trajectory — resuming a kXChange checkpoint under
// a residual criterion would not be the same run). Returns the mismatch
// diagnosis, or nullopt when the checkpoint fits.
std::optional<Diagnosis> ValidateCheckpointFor(const CheckpointState& state,
                                               std::uint64_t fingerprint,
                                               std::size_t m, std::size_t n,
                                               StopCriterion criterion);

// Problem fingerprint: FNV-1a 64 over the mode tag, shape, and every data
// vector. The two layouts hash different byte streams, separated by a
// leading tag byte. The sparse stream adds the pattern, and mixes the box
// bounds in interval mode only, which keeps the prints of its other regimes
// (in checkpoints and warm-cache keys) what earlier releases wrote.
std::uint64_t FingerprintProblem(const DiagonalProblem& p);
std::uint64_t FingerprintProblem(const SparseDiagonalProblem& p);

// Both prints of a dense problem from one pass over its data: the two
// FNV-1a chains advance together over the shape, x0 and gamma (see
// support::Fnv1aPair), then each mixes its own tail. sea_serve keys its
// warm cache with both.
//
// `structure` is like FingerprintProblem but EXCLUDES the target totals
// s0/d0 (and their interval bounds). Two problems share it exactly when
// they pose the same constrained-matrix structure — mode, shape, centers,
// weights — with possibly different totals, which is the "perturbed repeat
// request" the sea_serve warm cache's nearby tier matches: such problems
// re-converge along nearby dual trajectories, so the cached multipliers
// are a profitable warm start. Domain-separated from FingerprintProblem by
// the leading tag.
struct ProblemKeys {
  std::uint64_t full = 0;       // FingerprintProblem
  std::uint64_t structure = 0;  // totals excluded
};
ProblemKeys FingerprintProblemKeys(const DiagonalProblem& p);

// Owns the checkpoint path + cadence for one solve. The engine calls
// ShouldWrite() once per compared check and Write() when it returns true;
// a final checkpoint on cancellation / budget expiry / iteration cap goes
// through Write() directly (duplicate states are skipped).
class CheckpointWriter {
 public:
  static support::RetryPolicy DefaultRetry() {
    return support::RetryPolicy{3, 1.0, 4.0};
  }

  explicit CheckpointWriter(std::string path, std::uint64_t every_checks = 1,
                            support::RetryPolicy retry = DefaultRetry())
      : path_(std::move(path)),
        every_(every_checks == 0 ? 1 : every_checks),
        writer_(retry) {}

  // Cadence gate: true on every every_checks-th call.
  bool ShouldWrite() { return ++checks_seen_ % every_ == 0; }

  // Encodes + atomically writes `state`; returns false after the retry
  // policy is exhausted. A state for an iteration already on disk is
  // skipped (returns true without touching the file).
  bool Write(const CheckpointState& state);

  const std::string& path() const { return path_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t write_failures() const { return write_failures_; }

 private:
  std::string path_;
  std::uint64_t every_;
  support::AtomicFileWriter writer_;
  std::uint64_t checks_seen_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t write_failures_ = 0;
  std::optional<std::uint64_t> last_written_iteration_;
};

}  // namespace sea
