#include <gtest/gtest.h>

#include <cmath>

#include "linalg/dense_matrix.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/kernels.hpp"
#include "linalg/spd_generators.hpp"
#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix RandomMatrix(std::size_t r, std::size_t c, Rng& rng) {
  DenseMatrix m(r, c);
  for (double& v : m.Flat()) v = rng.Uniform(-5.0, 5.0);
  return m;
}

TEST(DenseMatrix, IdentityAndDiagonal) {
  const auto id = DenseMatrix::Identity(4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);

  const auto d = DenseMatrix::Diagonal({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
  EXPECT_EQ(d.DiagonalVector(), (Vector{1.0, 2.0, 3.0}));
}

TEST(DenseMatrix, TransposeRoundTrip) {
  Rng rng(1);
  const auto m = RandomMatrix(37, 53, rng);
  const auto t = m.Transposed();
  ASSERT_EQ(t.rows(), 53u);
  ASSERT_EQ(t.cols(), 37u);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      EXPECT_DOUBLE_EQ(t(j, i), m(i, j));
  EXPECT_DOUBLE_EQ(t.Transposed().MaxAbsDiff(m), 0.0);
}

TEST(DenseMatrix, TransposeLargeBlocked) {
  Rng rng(2);
  const auto m = RandomMatrix(130, 67, rng);  // exercises partial blocks
  const auto t = m.Transposed();
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      ASSERT_DOUBLE_EQ(t(j, i), m(i, j));
}

TEST(DenseMatrix, RowAndColSums) {
  DenseMatrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  EXPECT_EQ(m.RowSums(), (Vector{6.0, 15.0}));
  EXPECT_EQ(m.ColSums(), (Vector{5.0, 7.0, 9.0}));
}

TEST(DenseMatrix, MaxAbsDiffAndSymmetry) {
  DenseMatrix a(2, 2, 1.0), b(2, 2, 1.0);
  b(1, 0) = 1.5;
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 0.5);
  EXPECT_FALSE(b.IsSymmetric());
  b(0, 1) = 1.5;
  EXPECT_TRUE(b.IsSymmetric());
}

TEST(Kernels, DotOfShortVectors) {
  const Vector x{1.0, 2.0, 3.0, 4.0, 5.0};
  const Vector y{5.0, 4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(Dot(x, y), 35.0);
}

TEST(Kernels, DotMatchesNaiveOnOddLengths) {
  Rng rng(3);
  for (std::size_t n : {1u, 2u, 3u, 5u, 17u, 33u, 100u}) {
    const auto x = rng.UniformVector(n, -1.0, 1.0);
    const auto y = rng.UniformVector(n, -1.0, 1.0);
    double naive = 0.0;
    for (std::size_t i = 0; i < n; ++i) naive += x[i] * y[i];
    EXPECT_NEAR(Dot(x, y), naive, 1e-12);
  }
}

TEST(Kernels, GemvMatchesManual) {
  Rng rng(4);
  const auto a = RandomMatrix(7, 11, rng);
  const auto x = rng.UniformVector(11, -2.0, 2.0);
  Vector y(7);
  Gemv(a, x, y);
  for (std::size_t i = 0; i < 7; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < 11; ++j) acc += a(i, j) * x[j];
    EXPECT_NEAR(y[i], acc, 1e-12);
  }
}

TEST(Kernels, GemvParallelMatchesSerial) {
  Rng rng(5);
  const auto a = RandomMatrix(64, 64, rng);
  const auto x = rng.UniformVector(64, -2.0, 2.0);
  Vector y_serial(64), y_par(64);
  Gemv(a, x, y_serial);
  ThreadPool pool(4);
  GemvParallel(a, x, y_par, &pool);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_DOUBLE_EQ(y_par[i], y_serial[i]);
}

TEST(Kernels, MatMulIdentity) {
  Rng rng(6);
  const auto a = RandomMatrix(5, 5, rng);
  const auto prod = MatMul(a, DenseMatrix::Identity(5));
  EXPECT_LT(prod.MaxAbsDiff(a), 1e-14);
}

TEST(Kernels, MatMulKnownProduct) {
  DenseMatrix a(2, 3), b(3, 2);
  double v = 1.0;
  for (double& x : a.Flat()) x = v++;
  v = 1.0;
  for (double& x : b.Flat()) x = v++;
  const auto c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 22.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 28.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 49.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 64.0);
}

TEST(Cholesky, SolvesSpdSystem) {
  Rng rng(7);
  const auto a = MakeDiagonallyDominantSpd(20, rng);
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.has_value());
  const auto xtrue = rng.UniformVector(20, -3.0, 3.0);
  Vector b(20);
  Gemv(a, xtrue, b);
  const auto x = chol->Solve(b);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(x[i], xtrue[i], 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::Factor(a).has_value());
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng(8);
  const auto a = MakeDiagonallyDominantSpd(8, rng);
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.has_value());
  const auto llt = MatMul(chol->L(), chol->L().Transposed());
  EXPECT_LT(llt.MaxAbsDiff(a), 1e-9);
}

TEST(PartialPivLU, SolvesGeneralSystem) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomMatrix(15, 15, rng);
    const auto xtrue = rng.UniformVector(15, -3.0, 3.0);
    Vector b(15);
    Gemv(a, xtrue, b);
    auto lu = PartialPivLU::Factor(a);
    ASSERT_TRUE(lu.has_value());
    const auto x = lu->Solve(b);
    for (std::size_t i = 0; i < 15; ++i) EXPECT_NEAR(x[i], xtrue[i], 1e-7);
  }
}

TEST(PartialPivLU, DetectsSingular) {
  DenseMatrix a(3, 3, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // third row all zero
  EXPECT_FALSE(PartialPivLU::Factor(a).has_value());
}

TEST(PartialPivLU, HandlesPermutationRequiredMatrix) {
  // Zero pivot in the (0,0) position forces a row swap.
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  auto lu = PartialPivLU::Factor(a);
  ASSERT_TRUE(lu.has_value());
  const auto x = lu->Solve(Vector{3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SpdGenerators, ProducesDominantSymmetric) {
  Rng rng(10);
  const auto a = MakeDiagonallyDominantSpd(50, rng);
  EXPECT_TRUE(a.IsSymmetric());
  EXPECT_TRUE(IsStrictlyDiagonallyDominant(a));
  // Diagonal range per the paper's protocol.
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_GE(a(i, i), 500.0);
  }
}

TEST(SpdGenerators, MixedSignOffDiagonals) {
  Rng rng(11);
  const auto a = MakeDiagonallyDominantSpd(40, rng);
  int neg = 0, pos = 0;
  for (std::size_t i = 0; i < 40; ++i)
    for (std::size_t j = i + 1; j < 40; ++j) {
      if (a(i, j) < 0.0) ++neg;
      if (a(i, j) > 0.0) ++pos;
    }
  EXPECT_GT(neg, 100);
  EXPECT_GT(pos, 100);
}

TEST(SpdGenerators, DensityControl) {
  Rng rng(12);
  SpdOptions opts;
  opts.density = 0.2;
  const auto a = MakeDiagonallyDominantSpd(60, rng, opts);
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < 60; ++i)
    for (std::size_t j = i + 1; j < 60; ++j)
      if (a(i, j) != 0.0) ++nnz;
  const double frac = static_cast<double>(nnz) / (60.0 * 59.0 / 2.0);
  EXPECT_NEAR(frac, 0.2, 0.06);
  EXPECT_TRUE(IsStrictlyDiagonallyDominant(a));
}

TEST(SpdGenerators, PositiveDefiniteViaCholesky) {
  Rng rng(13);
  const auto a = MakeDiagonallyDominantSpd(30, rng);
  EXPECT_TRUE(Cholesky::Factor(a).has_value());
}

}  // namespace
}  // namespace sea
