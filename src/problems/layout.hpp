// The two storage layouts of a diagonal problem's arcs: DenseMatrix (every
// cell is an arc) and SparseMatrix (only the pattern entries are arcs;
// structural zeros are not variables). The problem, its solution, the
// solver and the checks are written once over the helpers below, which are
// the only arc-level code that knows the layout. Both walks visit the arcs
// row by row, each row in column order, so a sum taken over a full sparse
// pattern has the same bits as the dense one.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/dense_matrix.hpp"
#include "sparse/sparse_matrix.hpp"

namespace sea {

// The arc values in walk order (index k of ForEachArc).
inline std::span<const double> ArcValues(const DenseMatrix& a) {
  return a.Flat();
}
inline std::span<const double> ArcValues(const SparseMatrix& a) {
  return a.Values();
}
inline std::span<double> MutableArcValues(DenseMatrix& a) {
  return a.Flat();
}
inline std::span<double> MutableArcValues(SparseMatrix& a) {
  return a.MutableValues();
}

// Same arcs: equal shape (dense) or equal pattern (sparse).
inline bool SameLayout(const DenseMatrix& a, const DenseMatrix& b) {
  return a.SameShape(b);
}
inline bool SameLayout(const SparseMatrix& a, const SparseMatrix& b) {
  return a.SamePattern(b);
}

// Calls f(i, j, k) for every arc (i, j) with k its index into ArcValues.
template <class F>
void ForEachArc(const DenseMatrix& a, F&& f) {
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) f(i, j, i * n + j);
}
template <class F>
void ForEachArc(const SparseMatrix& a, F&& f) {
  const auto row_ptr = a.RowPtr();
  const auto col_idx = a.ColIdx();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)
      f(i, col_idx[k], k);
}

}  // namespace sea
