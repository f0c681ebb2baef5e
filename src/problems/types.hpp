// Shared enums for the constrained matrix problem family (paper Section 2).
#pragma once

#include <span>

namespace sea {

// Which totals regime the constraints follow.
enum class TotalsMode {
  // Row and column totals are known and fixed:
  //   sum_j x_ij = s0_i,  sum_i x_ij = d0_j        (objective (10)/(13))
  kFixed,
  // Totals are estimated along with the matrix:
  //   sum_j x_ij = s_i,   sum_i x_ij = d_j         (objective (1)/(5))
  kElastic,
  // Social accounting matrix: m == n and account i's row total equals its
  // column total (both equal the estimated s_i):
  //   sum_j x_ij = s_i,   sum_i x_ij = s_j         (objective (6)/(9))
  kSam,
  // Interval totals (Harrigan & Buchanan 1984, the generalization the
  // paper's Section 2 cites): totals are estimated as in kElastic but must
  // additionally lie in per-row/column intervals,
  //   s_lo_i <= s_i <= s_hi_i,   d_lo_j <= d_j <= d_hi_j.
  kInterval,
};

const char* ToString(TotalsMode mode);

// A problem's totals data as spans, the form the dense and sparse solvers
// share (the sweeps clear against it, the dual value reads it). The box
// bounds are read only in kInterval mode.
struct TotalsView {
  TotalsMode mode = TotalsMode::kFixed;
  std::span<const double> s0, alpha, d0, beta;
  std::span<const double> s_lo{}, s_hi{}, d_lo{}, d_hi{};
};

}  // namespace sea
