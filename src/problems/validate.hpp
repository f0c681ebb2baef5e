// Pre-flight problem validation with structured diagnoses.
//
// DiagonalProblem::Validate() throws on the first inconsistency it finds —
// right for library internals, useless for a user who wants to know
// everything wrong with their input at once. ValidateProblem instead walks
// the whole problem and returns a ValidationReport: one Diagnosis per
// defect, each carrying a machine-readable code plus the offending row or
// column, so a tool can print every problem and exit with
// SolveStatus::kInfeasible before burning iterations on an input the
// paper's Section 3 feasibility conditions already rule out.
//
// Checked conditions:
//   - dimension mismatches between the matrix and the totals vectors
//   - non-finite entries (NaN/Inf) in x0, gamma, or the totals
//   - non-positive weights gamma (strict convexity requires gamma > 0)
//   - negative entries in x0 or the totals (Section 3 nonnegativity)
//   - fixed regime: total supply != total demand (Σs ≠ Σd)
//   - zero-support rows/columns: every cell of the row (column) is zero
//     while its required total is positive — no scaling can ever meet it
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/types.hpp"

namespace sea {

enum class DiagnosisCode {
  kDimensionMismatch,
  kNonFiniteEntry,
  kNonPositiveWeight,
  kNegativeEntry,
  kTotalsImbalance,   // fixed regime: Σs != Σd
  kZeroSupportRow,    // row of zeros with a positive required total
  kZeroSupportCol,    // column of zeros with a positive required total
  // Checkpoint-file defects (src/core/checkpoint.hpp). Malformed covers
  // bad magic, truncation, and CRC mismatch; version skew is a well-formed
  // file written by an incompatible format revision; mismatch is a valid
  // checkpoint whose fingerprint/shape/criterion does not fit the problem
  // being resumed.
  kCheckpointMalformed,
  kCheckpointVersionSkew,
  kCheckpointMismatch,
};

const char* ToString(DiagnosisCode code);

// One defect. row/col are 0-based indices into the offending structure;
// kNoIndex marks "not applicable" (e.g. a whole-vector dimension mismatch).
struct Diagnosis {
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  DiagnosisCode code = DiagnosisCode::kDimensionMismatch;
  std::size_t row = kNoIndex;
  std::size_t col = kNoIndex;
  std::string message;  // human-readable, self-contained
};

struct ValidationReport {
  std::vector<Diagnosis> diagnoses;

  bool ok() const { return diagnoses.empty(); }
  bool Has(DiagnosisCode code) const;
  // One line per diagnosis, newline-separated; empty string when ok().
  std::string Summary() const;
};

// Validates the fixed-totals regime directly from its raw parts — the form
// the CLI tools assemble from CSV before a DiagonalProblem exists.
ValidationReport ValidateProblem(const DenseMatrix& x0,
                                 const DenseMatrix& gamma, const Vector& s0,
                                 const Vector& d0);

// Validates a constructed problem in any totals mode. The Σs = Σd balance
// and zero-support checks apply only where the mode fixes the totals
// (kFixed; kSam balances by construction).
ValidationReport ValidateProblem(const DiagonalProblem& p);

}  // namespace sea
