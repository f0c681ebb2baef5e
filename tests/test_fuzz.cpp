// Randomized robustness sweep: many random instances across regimes,
// including degenerate shapes (single row/column/cell, zero totals,
// extreme weight ratios, huge magnitudes), all checked against the same
// invariants. These are the inputs a downstream user will eventually feed
// the library; none may crash, hang, or return an infeasible "solution".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "entropy/entropy_sea.hpp"
#include "problems/feasibility.hpp"
#include "serve/protocol.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

SeaOptions FuzzOptions() {
  SeaOptions o;
  o.epsilon = 1e-7;
  o.criterion = StopCriterion::kResidualAbs;
  o.max_iterations = 300000;
  return o;
}

void ExpectSolved(const DiagonalProblem& p, const char* tag) {
  const auto run = SolveDiagonal(p, FuzzOptions());
  ASSERT_TRUE(run.result.converged()) << tag;
  const auto rep = CheckFeasibility(p, run.solution);
  EXPECT_GE(rep.min_x, 0.0) << tag;
  EXPECT_LT(rep.MaxAbs(), 1e-5 * (1.0 + rep.max_row_abs + 1.0)) << tag;
  const double scale = 1.0 + std::abs(run.result.objective);
  EXPECT_LT(KktStationarityError(p, run.solution), 1e-4 * scale) << tag;
}

TEST(Fuzz, RandomFixedInstances) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = 1 + rng.NextIndex(12);
    const std::size_t n = 1 + rng.NextIndex(12);
    DenseMatrix x0(m, n), gamma(m, n);
    for (double& v : x0.Flat()) v = rng.Uniform(0.0, 100.0);
    for (double& v : gamma.Flat()) v = rng.Uniform(1e-3, 1e3);
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    const double grow = rng.Uniform(0.5, 2.0);
    for (double& v : s0) v *= grow;
    for (double& v : d0) v *= grow;
    ExpectSolved(DiagonalProblem::MakeFixed(x0, gamma, s0, d0), "fixed");
  }
}

TEST(Fuzz, RandomElasticInstances) {
  Rng rng(0xF023);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = 1 + rng.NextIndex(12);
    const std::size_t n = 1 + rng.NextIndex(12);
    DenseMatrix x0(m, n), gamma(m, n);
    for (double& v : x0.Flat()) v = rng.Uniform(0.0, 1000.0);
    for (double& v : gamma.Flat()) v = rng.Uniform(1e-2, 1e2);
    Vector s0(m), d0(n);
    for (double& v : s0) v = rng.Uniform(0.0, 500.0 * double(n));
    for (double& v : d0) v = rng.Uniform(0.0, 500.0 * double(m));
    ExpectSolved(DiagonalProblem::MakeElastic(
                     x0, gamma, s0, rng.UniformVector(m, 0.01, 10.0), d0,
                     rng.UniformVector(n, 0.01, 10.0)),
                 "elastic");
  }
}

TEST(Fuzz, RandomSamInstances) {
  Rng rng(0xF024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.NextIndex(12);
    DenseMatrix x0(n, n), gamma(n, n);
    for (double& v : x0.Flat()) v = rng.Uniform(0.0, 100.0);
    for (double& v : gamma.Flat()) v = rng.Uniform(1e-2, 1e2);
    Vector s0 = rng.UniformVector(n, 1.0, 100.0 * double(n));
    SeaOptions o = FuzzOptions();
    o.criterion = StopCriterion::kResidualRel;
    const auto p = DiagonalProblem::MakeSam(
        x0, gamma, s0, rng.UniformVector(n, 0.01, 10.0));
    const auto run = SolveDiagonal(p, o);
    ASSERT_TRUE(run.result.converged());
    EXPECT_GE(CheckFeasibility(p, run.solution).min_x, 0.0);
    EXPECT_LT(KktStationarityError(p, run.solution),
              1e-4 * (1.0 + std::abs(run.result.objective)));
  }
}

TEST(Fuzz, DegenerateShapes) {
  Rng rng(0xF025);
  // 1x1: single cell pinned by its totals.
  {
    DenseMatrix x0(1, 1);
    x0(0, 0) = 5.0;
    DenseMatrix gamma(1, 1, 2.0);
    const auto p = DiagonalProblem::MakeFixed(x0, gamma, {7.0}, {7.0});
    const auto run = SolveDiagonal(p, FuzzOptions());
    ASSERT_TRUE(run.result.converged());
    EXPECT_NEAR(run.solution.x(0, 0), 7.0, 1e-8);
  }
  // 1xN row vector: column totals pin everything.
  {
    const std::size_t n = 6;
    DenseMatrix x0(1, n), gamma(1, n, 1.0);
    for (double& v : x0.Flat()) v = rng.Uniform(1.0, 5.0);
    Vector d0 = x0.ColSums();
    for (double& v : d0) v *= 1.5;
    double total = 0.0;
    for (double v : d0) total += v;
    const auto p = DiagonalProblem::MakeFixed(x0, gamma, {total}, d0);
    const auto run = SolveDiagonal(p, FuzzOptions());
    ASSERT_TRUE(run.result.converged());
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(run.solution.x(0, j), d0[j], 1e-7);
  }
  // Mx1 column vector.
  {
    const std::size_t m = 5;
    DenseMatrix x0(m, 1), gamma(m, 1, 1.0);
    for (double& v : x0.Flat()) v = rng.Uniform(1.0, 5.0);
    Vector s0 = x0.RowSums();
    double total = 0.0;
    for (double v : s0) total += v;
    const auto p = DiagonalProblem::MakeFixed(x0, gamma, s0, {total});
    const auto run = SolveDiagonal(p, FuzzOptions());
    ASSERT_TRUE(run.result.converged());
  }
  // All-zero totals: the zero matrix is the unique feasible point.
  {
    DenseMatrix x0(3, 3, 1.0), gamma(3, 3, 1.0);
    const auto p = DiagonalProblem::MakeFixed(x0, gamma, Vector(3, 0.0),
                                              Vector(3, 0.0));
    const auto run = SolveDiagonal(p, FuzzOptions());
    ASSERT_TRUE(run.result.converged());
    for (double v : run.solution.x.Flat()) EXPECT_NEAR(v, 0.0, 1e-10);
  }
}

TEST(Fuzz, ExtremeWeightRatios) {
  Rng rng(0xF026);
  DenseMatrix x0(6, 6), gamma(6, 6);
  for (double& v : x0.Flat()) v = rng.Uniform(1.0, 10.0);
  // Nine decades of weight spread in one problem.
  for (double& v : gamma.Flat())
    v = std::pow(10.0, rng.Uniform(-4.0, 5.0));
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.5;
  for (double& v : d0) v *= 1.5;
  ExpectSolved(DiagonalProblem::MakeFixed(x0, gamma, s0, d0),
               "extreme-weights");
}

TEST(Fuzz, HugeMagnitudes) {
  Rng rng(0xF027);
  DenseMatrix x0(5, 5), gamma(5, 5);
  for (double& v : x0.Flat()) v = rng.Uniform(1e8, 1e10);
  for (double& v : gamma.Flat()) v = 1.0 / rng.Uniform(1e8, 1e10);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 2.0;
  for (double& v : d0) v *= 2.0;
  const auto p = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
  SeaOptions o = FuzzOptions();
  o.criterion = StopCriterion::kResidualRel;  // absolute 1e-7 is meaningless
  o.epsilon = 1e-10;                          // at 1e10 magnitudes
  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());
  EXPECT_LT(CheckFeasibility(p, run.solution).MaxRel(), 1e-8);
}

TEST(Fuzz, RandomGrownFixedInstances) {
  Rng rng(0xF029);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = 1 + rng.NextIndex(12);
    const std::size_t n = 1 + rng.NextIndex(12);
    DenseMatrix x0(m, n), gamma(m, n);
    for (double& v : x0.Flat()) v = rng.Uniform(0.0, 100.0);
    for (double& v : gamma.Flat()) v = rng.Uniform(1e-3, 1e3);
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    const double grow = rng.Uniform(0.5, 2.0);
    for (double& v : s0) v *= grow;
    for (double& v : d0) v *= grow;
    const auto p = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
    const auto run = SolveDiagonal(p, FuzzOptions());
    ASSERT_TRUE(run.result.converged()) << trial;
    const auto rep = CheckFeasibility(p, run.solution);
    EXPECT_GE(rep.min_x, 0.0) << trial;
    EXPECT_LT(rep.MaxAbs(), 1e-5 * (2.0 + rep.max_row_abs)) << trial;
  }
}

TEST(Fuzz, TinyTieHeavyMarkets) {
  // Tiny shapes with uniform weights: breakpoint ties in every market.
  Rng rng(0xF02A);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 1 + rng.NextIndex(5);
    const std::size_t n = 1 + rng.NextIndex(5);
    DenseMatrix x0(m, n), gamma(m, n, 1.0);  // uniform weights => ties
    for (double& v : x0.Flat()) v = rng.Uniform(0.0, 4.0);
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    const auto run = SolveDiagonal(
        DiagonalProblem::MakeFixed(x0, gamma, s0, d0), FuzzOptions());
    ASSERT_TRUE(run.result.converged()) << trial;
  }
}

TEST(Fuzz, EntropyRandomInstances) {
  Rng rng(0xF028);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 1 + rng.NextIndex(10);
    const std::size_t n = 1 + rng.NextIndex(10);
    EntropyProblem p;
    p.x0 = DenseMatrix(m, n);
    for (double& v : p.x0.Flat()) v = rng.Uniform(0.1, 50.0);
    p.s0 = p.x0.RowSums();
    p.d0 = p.x0.ColSums();
    for (double& v : p.s0) v *= rng.Uniform(0.7, 1.4);
    double ssum = 0.0, dsum = 0.0;
    for (double v : p.s0) ssum += v;
    for (double v : p.d0) dsum += v;
    for (double& v : p.d0) v *= ssum / dsum;
    SeaOptions o = FuzzOptions();
    o.criterion = StopCriterion::kResidualRel;
    const auto run = SolveEntropy(p, o);
    ASSERT_TRUE(run.result.converged()) << trial;
    EXPECT_GE(CheckFeasibility(run.x, p.s0, p.d0).min_x, 0.0);
  }
}

// The checkpoint loader faces whatever a crash, a partial copy, or a bad
// disk left behind. Hostile bytes must always come back as either a valid
// state or a structured Diagnosis — never a crash, hang, or huge
// allocation (vector lengths are bounds-checked against the remaining
// payload before any resize).
TEST(Fuzz, CheckpointDecoderSurvivesHostileBytes) {
  CheckpointState st;
  st.fingerprint = 0x5EAC0FFEEull;
  st.m = 7;
  st.n = 5;
  st.criterion = StopCriterion::kResidualAbs;
  st.iteration = 42;
  st.checks_compared = 6;
  st.final_residual = 1e-3;
  st.stall_prev = 2e-3;
  st.stall_streak = 1;
  st.lambda.assign(7, 0.25);
  st.mu.assign(5, -0.5);
  st.have_snapshot = true;
  st.snapshot.assign(35, 1.0);
  // A filled extrapolation window: two pairs of n-vectors.
  st.extrapolations_accepted = 9;
  st.extrapolations_rejected = 2;
  st.accel_zeta = 1234.5;
  st.accel_f.assign(5, 0.125);
  st.accel_g.assign(5, -0.75);
  st.accel_df.assign(10, 0.5);
  st.accel_dg.assign(10, -0.25);
  const std::string clean = EncodeCheckpoint(st);
  ASSERT_TRUE(DecodeCheckpoint(clean).ok());

  Rng rng(0xC4C4);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = clean;
    switch (rng.NextIndex(4)) {
      case 0:  // flip one random byte
        bytes[rng.NextIndex(bytes.size())] ^=
            static_cast<char>(1 + rng.NextIndex(255));
        break;
      case 1:  // truncate to a random prefix
        bytes.resize(rng.NextIndex(bytes.size()));
        break;
      case 2:  // append random garbage
        for (std::size_t i = 0, add = 1 + rng.NextIndex(16); i < add; ++i)
          bytes.push_back(static_cast<char>(rng.NextIndex(256)));
        break;
      default: {  // splice random bytes over a random window
        const std::size_t at = rng.NextIndex(bytes.size());
        const std::size_t len =
            1 + rng.NextIndex(std::min<std::size_t>(32, bytes.size() - at));
        for (std::size_t i = 0; i < len; ++i)
          bytes[at + i] = static_cast<char>(rng.NextIndex(256));
        break;
      }
    }
    const CheckpointLoadResult out = DecodeCheckpoint(bytes);
    if (out.ok()) {
      // Vanishingly unlikely (CRC collision); a clean decode must at least
      // carry structurally consistent vectors.
      EXPECT_EQ(out.state.lambda.size(), out.state.m);
      EXPECT_EQ(out.state.mu.size(), out.state.n);
      EXPECT_EQ(out.state.accel_g.size(), out.state.accel_f.size());
      EXPECT_EQ(out.state.accel_dg.size(), out.state.accel_df.size());
    } else {
      ++rejected;
      EXPECT_FALSE(out.diagnosis->message.empty());
    }
  }
  // Nearly every mutation must be rejected; a handful of appends can be
  // absorbed only if the parser ignored trailing bytes, which it must not.
  EXPECT_GE(rejected, 1990);
}

// The serve wire codec faces the open network side of the daemon, so it
// gets the same hostile-bytes treatment as the checkpoint decoder: mutate
// a clean frame 2000 ways and demand a graceful, thrown-exception-free
// rejection for essentially all of them (the trailing CRC-32 makes clean
// decodes of mutants vanishingly unlikely).
TEST(Fuzz, ServeFrameDecoderSurvivesHostileBytes) {
  Rng gen(0x5E21);
  DenseMatrix x0(6, 4), gamma(6, 4);
  for (double& v : x0.Flat()) v = gen.Uniform(1.0, 10.0);
  for (double& v : gamma.Flat()) v = gen.Uniform(0.5, 2.0);
  serve::SolveRequest req;
  req.problem =
      DiagonalProblem::MakeFixed(x0, gamma, x0.RowSums(), x0.ColSums());
  req.epsilon = 1e-7;
  req.want_multipliers = true;
  const std::string clean = serve::EncodeRequestFrame(req);
  ASSERT_TRUE(serve::DecodeRequestFrame(clean).ok());

  Rng rng(0xF8A3E);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = clean;
    switch (rng.NextIndex(4)) {
      case 0:  // flip one random byte
        bytes[rng.NextIndex(bytes.size())] ^=
            static_cast<char>(1 + rng.NextIndex(255));
        break;
      case 1:  // truncate to a random prefix
        bytes.resize(rng.NextIndex(bytes.size()));
        break;
      case 2:  // append random garbage
        for (std::size_t i = 0, add = 1 + rng.NextIndex(16); i < add; ++i)
          bytes.push_back(static_cast<char>(rng.NextIndex(256)));
        break;
      default: {  // splice random bytes over a random window
        const std::size_t at = rng.NextIndex(bytes.size());
        const std::size_t len =
            1 + rng.NextIndex(std::min<std::size_t>(32, bytes.size() - at));
        for (std::size_t i = 0; i < len; ++i)
          bytes[at + i] = static_cast<char>(rng.NextIndex(256));
        break;
      }
    }
    const serve::DecodedRequest out = serve::DecodeRequestFrame(bytes);
    if (out.ok()) {
      // CRC collision territory: a surviving decode must still be a
      // validated problem of consistent shape.
      EXPECT_GT(out.request.problem.m(), 0u);
      EXPECT_GT(out.request.problem.n(), 0u);
    } else {
      ++rejected;
      EXPECT_FALSE(out.error.empty());
    }
  }
  EXPECT_GE(rejected, 1990);

  // Oversized-dimension frames must be refused by the length sanity
  // checks, not by an attempted multi-terabyte allocation: claim a huge
  // m*n in the header of an otherwise short frame.
  std::string hostile = clean;
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(&hostile[24], &huge, sizeof(huge));  // m field
  EXPECT_FALSE(serve::DecodeRequestFrame(hostile).ok());
}

}  // namespace
}  // namespace sea
