// Stopping-measure helpers shared by the iteration-engine backends.
//
// Every SEA variant measures convergence the same way: after the column
// half-step the column constraints hold exactly, so (paper eq. (25)) the
// remaining row residual of the materialized iterate is the dual-gradient
// component, and its clearing target is the row side's response at the
// current multipliers. That mode-dependent target computation used to be
// cloned in the dense and sparse check phases; it lives here once.
#pragma once

#include <cstddef>
#include <span>

#include "core/options.hpp"
#include "problems/types.hpp"

namespace sea {

// Target row total of row i of the materialized (column-feasible)
// iterate: s0_i (fixed), the elastic response s0_i - lambda_i / (2 alpha_i)
// (elastic; clamped to [s_lo_i, s_hi_i] for interval), or
// s0_i - (lambda_i + mu_i) / (2 alpha_i) (SAM). Spans the mode does not
// read may be empty (lambda for kFixed, mu outside kSam).
double RowTarget(const TotalsView& t, std::span<const double> lambda,
                 std::span<const double> mu, std::size_t i);

// Folds one row's |rowsum - target| (relative when c == kResidualRel) into
// the running max measure. c must be a residual criterion.
double FoldRowResidual(StopCriterion c, double rowsum, double target,
                       double measure);

// Max residual of precomputed row sums against the mode-dependent targets.
double MaxRowResidual(StopCriterion c, std::span<const double> rowsums,
                      const TotalsView& t, std::span<const double> lambda,
                      std::span<const double> mu);

// ETA model for live introspection (obs/status_file.hpp): assuming the
// linear-convergence regime measure_t ~ C * rho^t of iterative scaling,
// fits rho to two consecutive defined measures (it0, m0) and (it1, m1) and
// returns the expected number of FURTHER iterations until the measure
// reaches epsilon. Returns 0 when m1 <= epsilon already, and NaN when no
// estimate exists (non-positive or non-finite measures, it1 <= it0, or no
// contraction observed — rho >= 1).
double EstimateItersToEpsilon(std::size_t it0, double m0, std::size_t it1,
                              double m1, double epsilon);

}  // namespace sea
