// BLAS-lite kernels. The general splitting equilibration algorithm's
// projection step needs one dense symmetric matrix-vector product with G per
// outer iteration (paper eq. (79)); everything else is level-1.
#pragma once

#include <span>

#include "linalg/dense_matrix.hpp"

namespace sea {

class ThreadPool;  // forward declaration (parallel/thread_pool.hpp)

// <x, y>
double Dot(std::span<const double> x, std::span<const double> y);

// y <- A x  (general dense, row-major)
void Gemv(const DenseMatrix& a, std::span<const double> x, std::span<double> y);

// Parallel y <- A x over a thread pool (rows partitioned across workers).
// Falls back to the serial kernel when pool is null or has a single thread.
void GemvParallel(const DenseMatrix& a, std::span<const double> x,
                  std::span<double> y, ThreadPool* pool);

// C <- A * B (used only by small test/oracle paths, not on solver hot paths).
DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace sea
