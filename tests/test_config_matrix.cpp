// Cross-configuration sweep: every combination of totals regime, stopping
// criterion, sort policy, and thread count must satisfy the same invariants
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

#include "core/diagonal_sea.hpp"
#include "core/engine_observer.hpp"
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

// One deterministic instance per mode, shared by all configurations so that
// cross-configuration agreement is meaningful.
const DiagonalProblem& InstanceFor(TotalsMode mode) {
  static const auto* instances = [] {
    auto* map = new std::map<TotalsMode, DiagonalProblem>;
    Rng rng(0xC0FF);
    {
      DenseMatrix x0 = Fill(11, 14, rng, 0.1, 40.0);
      DenseMatrix gamma = Fill(11, 14, rng, 0.05, 2.0);
      Vector s0 = x0.RowSums(), d0 = x0.ColSums();
      for (double& v : s0) v *= 1.25;
      for (double& v : d0) v *= 1.25;
      (*map)[TotalsMode::kFixed] =
          DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
    }
    {
      DenseMatrix x0 = Fill(11, 14, rng, 0.1, 40.0);
      DenseMatrix gamma = Fill(11, 14, rng, 0.05, 2.0);
      Vector s0 = x0.RowSums(), d0 = x0.ColSums();
      for (double& v : s0) v *= rng.Uniform(0.8, 1.4);
      for (double& v : d0) v *= rng.Uniform(0.8, 1.4);
      (*map)[TotalsMode::kElastic] = DiagonalProblem::MakeElastic(
          x0, gamma, s0, rng.UniformVector(11, 0.2, 1.5), d0,
          rng.UniformVector(14, 0.2, 1.5));
    }
    {
      DenseMatrix x0 = Fill(12, 12, rng, 0.1, 40.0);
      DenseMatrix gamma = Fill(12, 12, rng, 0.05, 2.0);
      Vector s0(12);
      const Vector rows = x0.RowSums(), cols = x0.ColSums();
      for (std::size_t i = 0; i < 12; ++i) s0[i] = 0.5 * (rows[i] + cols[i]);
      (*map)[TotalsMode::kSam] = DiagonalProblem::MakeSam(
          x0, gamma, s0, rng.UniformVector(12, 0.2, 1.5));
    }
    {
      DenseMatrix x0 = Fill(11, 14, rng, 0.1, 40.0);
      DenseMatrix gamma = Fill(11, 14, rng, 0.05, 2.0);
      Vector s0 = x0.RowSums(), d0 = x0.ColSums();
      double ssum = 0.0, dsum = 0.0;
      for (double v : s0) ssum += v;
      for (double v : d0) dsum += v;
      for (double& v : d0) v *= ssum / dsum;
      Vector s_lo(11), s_hi(11), d_lo(14), d_hi(14);
      for (std::size_t i = 0; i < 11; ++i) {
        s_lo[i] = s0[i] * 0.95;
        s_hi[i] = s0[i] * 1.08;
      }
      for (std::size_t j = 0; j < 14; ++j) {
        d_lo[j] = d0[j] * 0.95;
        d_hi[j] = d0[j] * 1.08;
      }
      (*map)[TotalsMode::kInterval] = DiagonalProblem::MakeInterval(
          x0, gamma, s0, rng.UniformVector(11, 0.2, 1.5), s_lo, s_hi, d0,
          rng.UniformVector(14, 0.2, 1.5), d_lo, d_hi);
    }
    return map;
  }();
  return instances->at(mode);
}

// Reference objectives, computed once per mode with the default config.
double ReferenceObjective(TotalsMode mode) {
  static auto* cache = new std::map<TotalsMode, double>;
  auto it = cache->find(mode);
  if (it != cache->end()) return it->second;
  SeaOptions o;
  o.epsilon = 1e-10;
  o.criterion = StopCriterion::kResidualAbs;
  o.max_iterations = 500000;
  const auto run = SolveDiagonal(InstanceFor(mode), o);
  EXPECT_TRUE(run.result.converged());
  (*cache)[mode] = run.result.objective;
  return run.result.objective;
}

using Config = std::tuple<TotalsMode, StopCriterion, SortPolicy, std::size_t>;

class ConfigMatrix : public ::testing::TestWithParam<Config> {};

TEST_P(ConfigMatrix, InvariantsHoldAndOptimumAgrees) {
  const auto [mode, criterion, sort_policy, threads] = GetParam();
  const DiagonalProblem& p = InstanceFor(mode);

  ThreadPool pool(threads);
  SeaOptions o;
  o.criterion = criterion;
  o.epsilon = (criterion == StopCriterion::kResidualRel) ? 1e-9 : 1e-7;
  o.sort_policy = sort_policy;
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
  const double ref = ReferenceObjective(mode);
  EXPECT_NEAR(run.result.objective, ref, 1e-4 * std::max(1.0, std::abs(ref)));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigMatrix,
    ::testing::Combine(
        ::testing::Values(TotalsMode::kFixed, TotalsMode::kElastic,
                          TotalsMode::kSam, TotalsMode::kInterval),
        ::testing::Values(StopCriterion::kXChange,
                          StopCriterion::kResidualAbs,
                          StopCriterion::kResidualRel),
        ::testing::Values(SortPolicy::kAuto, SortPolicy::kInsertion,
                          SortPolicy::kHeapsort, SortPolicy::kReuse),
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

// One market kernel, one total order: ties break by arc index under every
// sort policy and prefix sums are sequential, so each market clears to the
// same bits whatever the policy or thread count. Whole solves are then
// bit-identical across configurations — every check's measure, the iterate,
// and the multipliers — not merely equal at the optimum.
struct TracedRun {
  DiagonalSeaRun run;
  std::vector<double> measures;
};

TracedRun SolveTraced(const DiagonalProblem& p, SortPolicy policy,
                      std::size_t threads) {
  ThreadPool pool(threads);
  SeaOptions o;
  o.epsilon = 1e-8;
  o.criterion = StopCriterion::kResidualAbs;
  o.max_iterations = 500000;
  o.sort_policy = policy;
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

TEST_P(ConfigTrajectory, SortPoliciesAndThreadsBitIdentical) {
  const DiagonalProblem& p = InstanceFor(GetParam());
  const TracedRun ref = SolveTraced(p, SortPolicy::kAuto, 1);
  ASSERT_TRUE(ref.run.result.converged());
  ASSERT_FALSE(ref.measures.empty());
  for (SortPolicy policy : {SortPolicy::kAuto, SortPolicy::kInsertion,
                            SortPolicy::kHeapsort, SortPolicy::kReuse}) {
    for (std::size_t threads : {1u, 4u}) {
      if (policy == SortPolicy::kAuto && threads == 1) continue;
      const TracedRun got = SolveTraced(p, policy, threads);
      const std::string tag = "policy=" + std::to_string(int(policy)) +
                              " threads=" + std::to_string(threads);
      EXPECT_EQ(got.run.result.status, ref.run.result.status) << tag;
      EXPECT_EQ(got.run.result.iterations, ref.run.result.iterations) << tag;
      EXPECT_EQ(got.run.result.kernel_markets, ref.run.result.kernel_markets)
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
}

INSTANTIATE_TEST_SUITE_P(AllModes, ConfigTrajectory,
                         ::testing::Values(TotalsMode::kFixed,
                                           TotalsMode::kElastic,
                                           TotalsMode::kSam,
                                           TotalsMode::kInterval));

}  // namespace
}  // namespace sea
