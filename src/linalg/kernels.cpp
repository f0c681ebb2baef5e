#include "linalg/kernels.hpp"

#include "parallel/thread_pool.hpp"
#include "support/check.hpp"

namespace sea {

double Dot(std::span<const double> x, std::span<const double> y) {
  SEA_DCHECK(x.size() == y.size());
  // Four-way unrolled accumulation: better ILP and more stable rounding than
  // a single serial chain at these sizes.
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) a0 += x[i] * y[i];
  return (a0 + a1) + (a2 + a3);
}

void Gemv(const DenseMatrix& a, std::span<const double> x,
          std::span<double> y) {
  SEA_CHECK(a.cols() == x.size());
  SEA_CHECK(a.rows() == y.size());
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = Dot(a.Row(i), x);
}

void GemvParallel(const DenseMatrix& a, std::span<const double> x,
                  std::span<double> y, ThreadPool* pool) {
  SEA_CHECK(a.cols() == x.size());
  SEA_CHECK(a.rows() == y.size());
  if (pool == nullptr || pool->num_threads() <= 1) {
    Gemv(a, x, y);
    return;
  }
  pool->ParallelFor(a.rows(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) y[i] = Dot(a.Row(i), x);
  });
}

DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b) {
  SEA_CHECK(a.cols() == b.rows());
  DenseMatrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const auto brow = b.Row(k);
      auto crow = c.Row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

}  // namespace sea
