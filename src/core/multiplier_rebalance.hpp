// The paper's "Modified Algorithm" (Section 3.1): keeping the dual iterates
// in a bounded set for the SAM and fixed-totals regimes.
//
// For l = 2, 3 the dual zeta_l is invariant under shifting all lambda's of a
// *connected component* of the support graph by a constant and the
// component's mu's by the opposite constant (the gauge freedom of the
// transportation dual). The support graph G^t joins row node i and column
// node j whenever x_ij(lambda, mu) > 0. The modification: whenever some
// |lambda_i| exceeds a chosen bound R, subtract that lambda_i from every
// lambda in its component and add it to every mu in the component — the
// primal allocations within the component and the dual value are unchanged,
// and the multipliers return to a data-dependent cube (paper eq. (78)).
#pragma once

#include <cstddef>
#include <vector>

#include "problems/diagonal_problem.hpp"

namespace sea {

struct RebalanceResult {
  std::size_t components = 0;          // connected components of G^t
  std::size_t shifted_components = 0;  // components that needed a shift
};

// Applies the paper's modification in place. Only meaningful for the kFixed
// and kSam regimes (kElastic has no gauge freedom and is rejected).
template <class Matrix>
RebalanceResult RebalanceMultipliers(const BasicDiagonalProblem<Matrix>& p,
                                     Vector& lambda, Vector& mu, double bound);

// Connected components of the support graph at (lambda, mu): returns for
// every row node (0..m-1) and column node (m..m+n-1) its component id, and
// the number of components. Only arcs join nodes, so on a sparse problem an
// off-pattern cell joins nothing. Exposed for tests and diagnostics.
template <class Matrix>
std::size_t SupportComponents(const BasicDiagonalProblem<Matrix>& p,
                              const Vector& lambda, const Vector& mu,
                              std::vector<std::size_t>& component_of);

}  // namespace sea
