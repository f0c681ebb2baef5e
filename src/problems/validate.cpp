#include "problems/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "problems/diagonal_problem.hpp"

namespace sea {

const char* ToString(DiagnosisCode code) {
  switch (code) {
    case DiagnosisCode::kDimensionMismatch:
      return "dimension-mismatch";
    case DiagnosisCode::kNonFiniteEntry:
      return "non-finite-entry";
    case DiagnosisCode::kNonPositiveWeight:
      return "non-positive-weight";
    case DiagnosisCode::kNegativeEntry:
      return "negative-entry";
    case DiagnosisCode::kTotalsImbalance:
      return "totals-imbalance";
    case DiagnosisCode::kZeroSupportRow:
      return "zero-support-row";
    case DiagnosisCode::kZeroSupportCol:
      return "zero-support-col";
    case DiagnosisCode::kCheckpointMalformed:
      return "checkpoint-malformed";
    case DiagnosisCode::kCheckpointVersionSkew:
      return "checkpoint-version-skew";
    case DiagnosisCode::kCheckpointMismatch:
      return "checkpoint-mismatch";
  }
  return "unknown";
}

bool ValidationReport::Has(DiagnosisCode code) const {
  for (const auto& d : diagnoses)
    if (d.code == code) return true;
  return false;
}

std::string ValidationReport::Summary() const {
  std::string out;
  for (const auto& d : diagnoses) {
    if (!out.empty()) out += '\n';
    out += std::string(ToString(d.code)) + ": " + d.message;
  }
  return out;
}

namespace {

void Add(ValidationReport& rep, DiagnosisCode code, std::size_t row,
         std::size_t col, std::string message) {
  rep.diagnoses.push_back({code, row, col, std::move(message)});
}

std::string Fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// Scans one matrix for NaN/Inf cells and (optionally) sign violations. Each
// class of defect is reported once per matrix at its first offending cell —
// a NaN-filled matrix should not produce a million-line report.
void CheckMatrix(ValidationReport& rep, const DenseMatrix& a,
                 const char* name, bool require_positive,
                 bool require_nonnegative) {
  bool saw_nonfinite = false, saw_sign = false;
  for (std::size_t i = 0; i < a.rows() && !(saw_nonfinite && saw_sign); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double v = a(i, j);
      if (!saw_nonfinite && !std::isfinite(v)) {
        saw_nonfinite = true;
        Add(rep, DiagnosisCode::kNonFiniteEntry, i, j,
            std::string(name) + "(" + std::to_string(i) + "," +
                std::to_string(j) + ") is " + Fmt(v));
      }
      if (!saw_sign && std::isfinite(v)) {
        if (require_positive && v <= 0.0) {
          saw_sign = true;
          Add(rep, DiagnosisCode::kNonPositiveWeight, i, j,
              std::string(name) + "(" + std::to_string(i) + "," +
                  std::to_string(j) + ") = " + Fmt(v) +
                  " must be > 0 (strict convexity)");
        } else if (require_nonnegative && v < 0.0) {
          saw_sign = true;
          Add(rep, DiagnosisCode::kNegativeEntry, i, j,
              std::string(name) + "(" + std::to_string(i) + "," +
                  std::to_string(j) + ") = " + Fmt(v) + " is negative");
        }
      }
    }
  }
}

void CheckVector(ValidationReport& rep, const Vector& v, const char* name,
                 bool require_nonnegative) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) {
      Add(rep, DiagnosisCode::kNonFiniteEntry, i, Diagnosis::kNoIndex,
          std::string(name) + "[" + std::to_string(i) + "] is " + Fmt(v[i]));
    } else if (require_nonnegative && v[i] < 0.0) {
      Add(rep, DiagnosisCode::kNegativeEntry, i, Diagnosis::kNoIndex,
          std::string(name) + "[" + std::to_string(i) + "] = " + Fmt(v[i]) +
              " is negative");
    }
  }
}

void CheckBalance(ValidationReport& rep, const Vector& s0, const Vector& d0) {
  double sum_s = 0.0, sum_d = 0.0;
  for (double v : s0) sum_s += v;
  for (double v : d0) sum_d += v;
  if (!std::isfinite(sum_s) || !std::isfinite(sum_d)) return;  // reported
  const double scale = std::max({1.0, std::abs(sum_s), std::abs(sum_d)});
  if (std::abs(sum_s - sum_d) > 1e-8 * scale)
    Add(rep, DiagnosisCode::kTotalsImbalance, Diagnosis::kNoIndex,
        Diagnosis::kNoIndex,
        "total supply " + Fmt(sum_s) + " != total demand " + Fmt(sum_d) +
            " (fixed totals require a balanced problem)");
}

// A row (column) of all-zero cells cannot carry flow no matter how the
// multipliers scale it; a positive required total on such a line is
// structurally infeasible.
void CheckSupport(ValidationReport& rep, const DenseMatrix& x0,
                  const Vector& s0, const Vector& d0) {
  if (s0.size() == x0.rows()) {
    for (std::size_t i = 0; i < x0.rows(); ++i) {
      if (!(s0[i] > 0.0)) continue;
      bool any = false;
      for (std::size_t j = 0; j < x0.cols() && !any; ++j)
        any = x0(i, j) != 0.0;
      if (!any)
        Add(rep, DiagnosisCode::kZeroSupportRow, i, Diagnosis::kNoIndex,
            "row " + std::to_string(i) + " is all zeros but requires total " +
                Fmt(s0[i]));
    }
  }
  if (d0.size() == x0.cols()) {
    for (std::size_t j = 0; j < x0.cols(); ++j) {
      if (!(d0[j] > 0.0)) continue;
      bool any = false;
      for (std::size_t i = 0; i < x0.rows() && !any; ++i)
        any = x0(i, j) != 0.0;
      if (!any)
        Add(rep, DiagnosisCode::kZeroSupportCol, Diagnosis::kNoIndex, j,
            "column " + std::to_string(j) +
                " is all zeros but requires total " + Fmt(d0[j]));
    }
  }
}

void CheckDims(ValidationReport& rep, const DenseMatrix& x0,
               const DenseMatrix& gamma, const Vector& s0, const Vector& d0,
               std::size_t want_s, std::size_t want_d) {
  if (gamma.rows() != x0.rows() || gamma.cols() != x0.cols())
    Add(rep, DiagnosisCode::kDimensionMismatch, Diagnosis::kNoIndex,
        Diagnosis::kNoIndex,
        "gamma is " + std::to_string(gamma.rows()) + "x" +
            std::to_string(gamma.cols()) + " but x0 is " +
            std::to_string(x0.rows()) + "x" + std::to_string(x0.cols()));
  if (s0.size() != want_s)
    Add(rep, DiagnosisCode::kDimensionMismatch, Diagnosis::kNoIndex,
        Diagnosis::kNoIndex,
        "row totals have " + std::to_string(s0.size()) +
            " entries, expected " + std::to_string(want_s));
  if (d0.size() != want_d)
    Add(rep, DiagnosisCode::kDimensionMismatch, Diagnosis::kNoIndex,
        Diagnosis::kNoIndex,
        "column totals have " + std::to_string(d0.size()) +
            " entries, expected " + std::to_string(want_d));
}

}  // namespace

ValidationReport ValidateProblem(const DenseMatrix& x0,
                                 const DenseMatrix& gamma, const Vector& s0,
                                 const Vector& d0) {
  ValidationReport rep;
  CheckDims(rep, x0, gamma, s0, d0, x0.rows(), x0.cols());
  CheckMatrix(rep, x0, "x0", /*require_positive=*/false,
              /*require_nonnegative=*/true);
  CheckMatrix(rep, gamma, "gamma", /*require_positive=*/true,
              /*require_nonnegative=*/false);
  CheckVector(rep, s0, "row totals", /*require_nonnegative=*/true);
  CheckVector(rep, d0, "column totals", /*require_nonnegative=*/true);
  // Feasibility conditions are only meaningful on shape-consistent input.
  if (s0.size() == x0.rows() && d0.size() == x0.cols()) {
    CheckBalance(rep, s0, d0);
    CheckSupport(rep, x0, s0, d0);
  }
  return rep;
}

ValidationReport ValidateProblem(const DiagonalProblem& p) {
  ValidationReport rep;
  const std::size_t want_s =
      p.mode() == TotalsMode::kSam ? p.n() : p.m();
  CheckDims(rep, p.x0(), p.gamma(), p.s0(),
            p.mode() == TotalsMode::kSam ? p.s0() : p.d0(), want_s, p.n());
  CheckMatrix(rep, p.x0(), "x0", /*require_positive=*/false,
              /*require_nonnegative=*/true);
  CheckMatrix(rep, p.gamma(), "gamma", /*require_positive=*/true,
              /*require_nonnegative=*/false);
  CheckVector(rep, p.s0(), "row totals", /*require_nonnegative=*/true);
  if (p.mode() != TotalsMode::kSam)
    CheckVector(rep, p.d0(), "column totals", /*require_nonnegative=*/true);
  if (p.mode() == TotalsMode::kFixed && p.s0().size() == p.m() &&
      p.d0().size() == p.n()) {
    CheckBalance(rep, p.s0(), p.d0());
    CheckSupport(rep, p.x0(), p.s0(), p.d0());
  }
  return rep;
}

}  // namespace sea
