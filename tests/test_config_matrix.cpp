// Cross-configuration sweep: every combination of totals regime, stopping
// criterion, market shape, and thread count must satisfy the same invariants
// on the same instances — feasibility at tolerance, KKT stationarity,
// nonnegativity, and agreement of the optimum across configurations (the
// optimum is unique; only the route may differ).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/rc_algorithm.hpp"
#include "core/diagonal_sea.hpp"
#include "core/engine_observer.hpp"
#include "core/general_sea.hpp"
#include "datasets/general_dense.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/feasibility.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix Fill(std::size_t m, std::size_t n, Rng& rng, double lo, double hi) {
  DenseMatrix x(m, n);
  for (double& v : x.Flat()) v = rng.Uniform(lo, hi);
  return x;
}

// The one sort path takes different branches by market shape, so the
// instances vary it: narrow markets (at most kInsertionThreshold = 128 arcs)
// cold-sort by insertion and then repair; wide markets cold-sort by the
// radix sort and then repair; chi-square weights (gamma = 1/x0) make every
// wide row market's first sweep a full tie, so the zero sweep seeds each
// row market's exact order from its offsets and the later sweeps seed from
// one shared multiplier order (equilibration/equilibrator.hpp,
// SortOrderCache); tied instances
// (three x0 values, three weights) start every market with repeated
// breakpoints, so each stored order is built by tie-breaking on arc index.
enum class Shape { kNarrow, kWide, kChiSquare, kTied };

// Base matrix and weights for one shape; x0 comes first off the stream.
void FillBase(Shape shape, std::size_t m, std::size_t n, Rng& rng,
              DenseMatrix& x0, DenseMatrix& gamma) {
  if (shape == Shape::kTied) {
    x0 = DenseMatrix(m, n);
    for (double& v : x0.Flat()) v = 4.0 * double(1 + rng.NextIndex(3));
    gamma = DenseMatrix(m, n);
    for (double& v : gamma.Flat()) v = 0.5 * double(1 + rng.NextIndex(3));
    return;
  }
  x0 = Fill(m, n, rng, 0.1, 40.0);
  if (shape == Shape::kChiSquare) {
    gamma = DenseMatrix(m, n);
    for (std::size_t k = 0; k < x0.Flat().size(); ++k)
      gamma.Flat()[k] = 1.0 / x0.Flat()[k];
    return;
  }
  gamma = Fill(m, n, rng, 0.05, 2.0);
}

// Weights on the totals: chi-square (1/total) to match chi-square cell
// weights, random otherwise.
Vector TotalWeights(Shape shape, const Vector& totals, Rng& rng) {
  if (shape != Shape::kChiSquare) {
    return rng.UniformVector(totals.size(), 0.2, 1.5);
  }
  Vector w(totals.size());
  for (std::size_t k = 0; k < w.size(); ++k) w[k] = 1.0 / totals[k];
  return w;
}

DiagonalProblem MakeInstance(TotalsMode mode, Shape shape, Rng& rng) {
  const bool narrow = shape == Shape::kNarrow;
  DenseMatrix x0, gamma;
  if (mode == TotalsMode::kSam) {
    const std::size_t n = narrow ? 12 : 132;
    FillBase(shape, n, n, rng, x0, gamma);
    Vector s0(n);
    const Vector rows = x0.RowSums(), cols = x0.ColSums();
    for (std::size_t i = 0; i < n; ++i) s0[i] = 0.5 * (rows[i] + cols[i]);
    return DiagonalProblem::MakeSam(x0, gamma, s0,
                                    TotalWeights(shape, s0, rng));
  }
  const std::size_t m = narrow ? 11 : 6, n = narrow ? 14 : 150;
  FillBase(shape, m, n, rng, x0, gamma);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  if (mode == TotalsMode::kFixed) {
    // Uneven growth on the larger shapes: a uniform 1.25 would let chi-square
    // weights clear the whole problem in one sweep, leaving nothing to repair.
    for (double& v : s0) v *= narrow ? 1.25 : rng.Uniform(1.0, 1.5);
    for (double& v : d0) v *= narrow ? 1.25 : rng.Uniform(1.0, 1.5);
    double ssum = 0.0, dsum = 0.0;
    for (double v : s0) ssum += v;
    for (double v : d0) dsum += v;
    if (!narrow)
      for (double& v : d0) v *= ssum / dsum;
    return DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
  }
  if (mode == TotalsMode::kElastic) {
    for (double& v : s0) v *= rng.Uniform(0.8, 1.4);
    for (double& v : d0) v *= rng.Uniform(0.8, 1.4);
    return DiagonalProblem::MakeElastic(x0, gamma, s0,
                                        TotalWeights(shape, s0, rng), d0,
                                        TotalWeights(shape, d0, rng));
  }
  double ssum = 0.0, dsum = 0.0;
  for (double v : s0) ssum += v;
  for (double v : d0) dsum += v;
  for (double& v : d0) v *= ssum / dsum;
  // The larger shapes put the base totals below their boxes, by a different
  // margin per row, so the first sweeps can neither stop at x0 nor at a
  // uniform rescaling of it.
  const double lo = narrow ? 0.95 : 1.02, hi = narrow ? 1.08 : 1.10;
  Vector s_lo(m), s_hi(m), d_lo(n), d_hi(n);
  for (std::size_t i = 0; i < m; ++i) {
    const double row_lo = narrow ? lo : rng.Uniform(1.02, 1.06);
    s_lo[i] = s0[i] * row_lo;
    s_hi[i] = s0[i] * (narrow ? hi : row_lo + 0.08);
  }
  for (std::size_t j = 0; j < n; ++j) {
    d_lo[j] = d0[j] * lo;
    d_hi[j] = d0[j] * hi;
  }
  return DiagonalProblem::MakeInterval(
      x0, gamma, s0, TotalWeights(shape, s0, rng), s_lo, s_hi, d0,
      TotalWeights(shape, d0, rng), d_lo, d_hi);
}

constexpr TotalsMode kModes[] = {TotalsMode::kFixed, TotalsMode::kElastic,
                                 TotalsMode::kSam, TotalsMode::kInterval};

// One deterministic instance per (mode, shape), shared by all
// configurations so that cross-configuration agreement is meaningful.
const DiagonalProblem& InstanceFor(TotalsMode mode,
                                   Shape shape = Shape::kNarrow) {
  static const auto* instances = [] {
    auto* map = new std::map<std::pair<TotalsMode, Shape>, DiagonalProblem>;
    std::uint64_t seed = 0xC0FF;
    for (Shape shape : {Shape::kNarrow, Shape::kWide, Shape::kChiSquare,
                        Shape::kTied}) {
      Rng rng(seed++);
      for (TotalsMode mode : kModes)
        map->emplace(std::pair{mode, shape}, MakeInstance(mode, shape, rng));
    }
    return map;
  }();
  return instances->at({mode, shape});
}

// Reference objectives, computed once per instance with the default config.
double ReferenceObjective(TotalsMode mode, Shape shape) {
  static auto* cache = new std::map<std::pair<TotalsMode, Shape>, double>;
  auto it = cache->find({mode, shape});
  if (it != cache->end()) return it->second;
  SeaOptions o;
  o.epsilon = 1e-10;
  o.criterion = StopCriterion::kResidualAbs;
  o.max_iterations = 500000;
  const auto run = SolveDiagonal(InstanceFor(mode, shape), o);
  EXPECT_TRUE(run.result.converged());
  (*cache)[{mode, shape}] = run.result.objective;
  return run.result.objective;
}

using Config = std::tuple<TotalsMode, StopCriterion, Shape, std::size_t>;

class ConfigMatrix : public ::testing::TestWithParam<Config> {};

TEST_P(ConfigMatrix, InvariantsHoldAndOptimumAgrees) {
  const auto [mode, criterion, shape, threads] = GetParam();
  const DiagonalProblem& p = InstanceFor(mode, shape);

  ThreadPool pool(threads);
  SeaOptions o;
  o.criterion = criterion;
  o.epsilon = (criterion == StopCriterion::kResidualRel) ? 1e-9 : 1e-7;
  o.max_iterations = 500000;
  if (threads > 1) o.pool = &pool;

  const auto run = SolveDiagonal(p, o);
  ASSERT_TRUE(run.result.converged());

  const auto rep = CheckFeasibility(p, run.solution);
  EXPECT_GE(rep.min_x, 0.0);
  EXPECT_LT(rep.MaxRel(), 1e-5);
  EXPECT_LT(KktStationarityError(p, run.solution),
            1e-4 * (1.0 + std::abs(run.result.objective)));

  // Unique optimum: every configuration lands on the same objective value.
  const double ref = ReferenceObjective(mode, shape);
  EXPECT_NEAR(run.result.objective, ref, 1e-4 * std::max(1.0, std::abs(ref)));

  // Every market solve after a market's first sweep repairs its stored order;
  // only a wide market's repair may overrun its budget and hand over to the
  // radix sort. Under chi-square weights no market cold-sorts: the first
  // row sweep (against mu = 0) repairs orders seeded from the offsets, the
  // first two column sweeps and the second row sweep repair orders seeded
  // from the multipliers, and no repair hands over.
  // (The larger shapes are built to need more than one sweep.)
  const std::uint64_t markets_per_sweep = p.m() + p.n();
  ASSERT_GE(run.result.kernel_markets, markets_per_sweep);
  const std::uint64_t repairs = run.result.kernel_markets - markets_per_sweep;
  if (shape == Shape::kNarrow) {
    EXPECT_EQ(run.result.order_reuses, repairs);
  } else if (shape == Shape::kChiSquare) {
    EXPECT_EQ(run.result.order_reuses, run.result.kernel_markets);
  } else {
    EXPECT_GT(run.result.order_reuses, 0u);
    EXPECT_LE(run.result.order_reuses, repairs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigMatrix,
    ::testing::Combine(
        ::testing::Values(TotalsMode::kFixed, TotalsMode::kElastic,
                          TotalsMode::kSam, TotalsMode::kInterval),
        ::testing::Values(StopCriterion::kXChange,
                          StopCriterion::kResidualAbs,
                          StopCriterion::kResidualRel),
        ::testing::Values(Shape::kNarrow, Shape::kWide, Shape::kChiSquare,
                          Shape::kTied),
        ::testing::Values<std::size_t>(1, 4)));

// Determinism across repeated runs (same config => bit-identical solutions).
class ConfigDeterminism
    : public ::testing::TestWithParam<std::tuple<TotalsMode, std::size_t>> {};

TEST_P(ConfigDeterminism, RepeatRunsBitIdentical) {
  const auto [mode, threads] = GetParam();
  const DiagonalProblem& p = InstanceFor(mode);
  ThreadPool pool(threads);
  SeaOptions o;
  o.epsilon = 1e-8;
  o.criterion = StopCriterion::kResidualAbs;
  if (threads > 1) o.pool = &pool;
  const auto a = SolveDiagonal(p, o);
  const auto b = SolveDiagonal(p, o);
  ASSERT_TRUE(a.result.converged());
  EXPECT_EQ(a.result.iterations, b.result.iterations);
  EXPECT_DOUBLE_EQ(a.solution.x.MaxAbsDiff(b.solution.x), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Repeats, ConfigDeterminism,
    ::testing::Combine(::testing::Values(TotalsMode::kFixed,
                                         TotalsMode::kElastic,
                                         TotalsMode::kSam,
                                         TotalsMode::kInterval),
                       ::testing::Values<std::size_t>(1, 3)));

// One market kernel, one total order: ties break by arc index in every sort
// and repair, and prefix sums are sequential, so each market clears to the
// same bits whatever the thread count. Whole solves are then bit-identical
// across thread counts — every check's measure, the iterate, and the
// multipliers — not merely equal at the optimum. (That repaired orders match
// cold sorts sweep for sweep is EquilibrateSide's
// OrderCacheSweepsBitIdenticalToColdSweeps.)
struct TracedRun {
  DiagonalSeaRun run;
  std::vector<double> measures;
};

TracedRun SolveTraced(const DiagonalProblem& p, std::size_t threads) {
  ThreadPool pool(threads);
  SeaOptions o;
  o.epsilon = 1e-8;
  o.criterion = StopCriterion::kResidualAbs;
  o.max_iterations = 500000;
  if (threads > 1) o.pool = &pool;
  TracedRun traced;
  CheckObserver progress([&traced](const IterationEvent& ev) {
    if (ev.measure_defined) traced.measures.push_back(ev.measure);
  });
  o.observers.push_back(&progress);
  traced.run = SolveDiagonal(p, o);
  return traced;
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class ConfigTrajectory : public ::testing::TestWithParam<TotalsMode> {};

TEST_P(ConfigTrajectory, ThreadsBitIdentical) {
  const DiagonalProblem& p = InstanceFor(GetParam());
  const TracedRun ref = SolveTraced(p, 1);
  ASSERT_TRUE(ref.run.result.converged());
  ASSERT_FALSE(ref.measures.empty());
  for (std::size_t threads : {2u, 4u}) {
    const TracedRun got = SolveTraced(p, threads);
    const std::string tag = "threads=" + std::to_string(threads);
    EXPECT_EQ(got.run.result.status, ref.run.result.status) << tag;
    EXPECT_EQ(got.run.result.iterations, ref.run.result.iterations) << tag;
    EXPECT_EQ(got.run.result.kernel_markets, ref.run.result.kernel_markets)
        << tag;
    EXPECT_EQ(got.run.result.order_reuses, ref.run.result.order_reuses)
        << tag;
    EXPECT_TRUE(SameBits(got.measures, ref.measures)) << tag;
    EXPECT_TRUE(SameBits(got.run.solution.x.Flat(),
                         ref.run.solution.x.Flat()))
        << tag;
    EXPECT_TRUE(SameBits(got.run.solution.lambda, ref.run.solution.lambda))
        << tag;
    EXPECT_TRUE(SameBits(got.run.solution.mu, ref.run.solution.mu)) << tag;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ConfigTrajectory,
                         ::testing::Values(TotalsMode::kFixed,
                                           TotalsMode::kElastic,
                                           TotalsMode::kSam,
                                           TotalsMode::kInterval));

// The general solvers share the sweep kernel and split each dense G matvec
// (linearization and final objective) by rows of G, one Dot per row, so
// general SEA and RC are bit-identical across thread counts too.
TEST(GeneralThreads, SeaAndRcBitIdentical) {
  Rng rng(21);
  const GeneralProblem p = datasets::MakeGeneralDense(6, 5, rng);
  GeneralSeaOptions sea_opts;
  sea_opts.outer_epsilon = 1e-6;
  sea_opts.inner.criterion = StopCriterion::kResidualAbs;
  RcOptions rc_opts;
  rc_opts.epsilon = 1e-6;
  const GeneralSeaRun sea_ref = SolveGeneral(p, sea_opts);
  const RcRun rc_ref = SolveRc(p, rc_opts);
  ASSERT_TRUE(sea_ref.result.converged());
  ASSERT_TRUE(rc_ref.result.converged);
  for (std::size_t threads : {2u, 4u}) {
    const std::string tag = "threads=" + std::to_string(threads);
    ThreadPool pool(threads);
    sea_opts.inner.pool = &pool;
    rc_opts.pool = &pool;
    const GeneralSeaRun sea_got = SolveGeneral(p, sea_opts);
    const RcRun rc_got = SolveRc(p, rc_opts);
    EXPECT_EQ(sea_got.result.outer_iterations, sea_ref.result.outer_iterations)
        << tag;
    EXPECT_EQ(sea_got.result.total_inner_iterations,
              sea_ref.result.total_inner_iterations)
        << tag;
    EXPECT_TRUE(SameBits(sea_got.solution.x.Flat(), sea_ref.solution.x.Flat()))
        << tag;
    EXPECT_TRUE(SameBits({&sea_got.result.objective, 1},
                         {&sea_ref.result.objective, 1}))
        << tag;
    EXPECT_EQ(rc_got.result.projection_iterations_per_phase,
              rc_ref.result.projection_iterations_per_phase)
        << tag;
    EXPECT_TRUE(SameBits(rc_got.solution.x.Flat(), rc_ref.solution.x.Flat()))
        << tag;
    EXPECT_TRUE(SameBits({&rc_got.result.objective, 1},
                         {&rc_ref.result.objective, 1}))
        << tag;
  }
}

}  // namespace
}  // namespace sea
