#include "linalg/factorizations.hpp"

#include <cmath>

#include "obs/profiler.hpp"
#include "support/check.hpp"

namespace sea {

std::optional<Cholesky> Cholesky::Factor(const DenseMatrix& a) {
  obs::ProfScope prof("linalg.cholesky_factor");
  SEA_CHECK(a.rows() == a.cols());
  const std::size_t n = a.rows();
  DenseMatrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      const auto li = l.Row(i);
      const auto lj = l.Row(j);
      for (std::size_t k = 0; k < j; ++k) v -= li[k] * lj[k];
      l(i, j) = v / ljj;
    }
  }
  return Cholesky(std::move(l));
}

void Cholesky::SolveInPlace(std::span<double> b) const {
  const std::size_t n = dim();
  SEA_CHECK(b.size() == n);
  // Forward: L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    const auto li = l_.Row(i);
    for (std::size_t k = 0; k < i; ++k) v -= li[k] * b[k];
    b[i] = v / li[i];
  }
  // Backward: L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l_(k, ii) * b[k];
    b[ii] = v / l_(ii, ii);
  }
}

Vector Cholesky::Solve(std::span<const double> b) const {
  Vector x(b.begin(), b.end());
  SolveInPlace(x);
  return x;
}

std::optional<PartialPivLU> PartialPivLU::Factor(const DenseMatrix& a) {
  obs::ProfScope prof("linalg.lu_factor");
  SEA_CHECK(a.rows() == a.cols());
  const std::size_t n = a.rows();
  DenseMatrix lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t piv = col;
    double best = std::abs(lu(col, col));
    for (std::size_t i = col + 1; i < n; ++i) {
      const double v = std::abs(lu(i, col));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best < 1e-14) return std::nullopt;
    if (piv != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu(piv, j), lu(col, j));
      std::swap(perm[piv], perm[col]);
    }
    const double pivot = lu(col, col);
    for (std::size_t i = col + 1; i < n; ++i) {
      const double f = lu(i, col) / pivot;
      lu(i, col) = f;
      if (f == 0.0) continue;
      auto ri = lu.Row(i);
      const auto rc = lu.Row(col);
      for (std::size_t j = col + 1; j < n; ++j) ri[j] -= f * rc[j];
    }
  }
  return PartialPivLU(std::move(lu), std::move(perm));
}

Vector PartialPivLU::Solve(std::span<const double> b) const {
  const std::size_t n = dim();
  SEA_CHECK(b.size() == n);
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // L has unit diagonal.
  for (std::size_t i = 0; i < n; ++i) {
    double v = x[i];
    const auto row = lu_.Row(i);
    for (std::size_t k = 0; k < i; ++k) v -= row[k] * x[k];
    x[i] = v;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double v = x[ii];
    const auto row = lu_.Row(ii);
    for (std::size_t k = ii + 1; k < n; ++k) v -= row[k] * x[k];
    x[ii] = v / row[ii];
  }
  return x;
}

}  // namespace sea
