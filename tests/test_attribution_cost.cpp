// The attribution pay-for-use timing gate, in a binary of its own so ctest
// runs it alone (RUN_SERIAL): it compares CPU times of back-to-back solves,
// and a parallel suite run on a small host skews them.
#include <gtest/gtest.h>

#include <algorithm>
#include <ctime>
#include <vector>

#include "core/diagonal_sea.hpp"
#include "datasets/large_diagonal.hpp"
#include "obs/market_stats.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

TEST(Attribution, DisabledPathStaysPayForUse) {
  // Pay-for-use gate: forensics must cost nothing when off. The disabled path
  // is one pointer test per market solve, which cannot be isolated from the
  // rest of the sweep at runtime — but FULL recording (the branch taken,
  // plus two clock reads and four array writes per market) is a strict
  // upper bound on it. On this table1-shaped instance full recording
  // measures ~0-2% (bench/micro_kernels tracks the exact figure in the
  // bench trajectory); gating at 5% keeps the assertion robust to container
  // noise while still pinning the disabled branch well inside the
  // documented <2% pay-for-use budget.
  Rng rng(11);
  const auto p = datasets::MakeLargeDiagonal(160, 160, rng);
  SeaOptions base;
  base.epsilon = 1e-8;
  obs::MarketAttribution attr;

  // The solve is serial, so this thread's CPU time is its cost; unlike wall
  // time it does not charge one configuration for being preempted by other
  // processes (a parallel ctest run).
  auto thread_cpu_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };
  auto solve_seconds = [&](bool enabled) {
    SeaOptions o = base;
    if (enabled) o.attribution = &attr;
    const double start = thread_cpu_seconds();
    const auto run = SolveDiagonal(p, o);
    const double s = thread_cpu_seconds() - start;
    EXPECT_TRUE(run.result.converged());
    return s;
  };
  // Warm up caches and clocks, then time disabled/enabled back to back,
  // alternating which goes first. Each pair's ratio sees one host speed, so
  // drift between pairs cancels; the median ignores the odd disturbed pair.
  for (int i = 0; i < 4; ++i) (void)solve_seconds(i % 2 == 0);
  std::vector<double> ratios;
  for (int round = 0; round < 31; ++round) {
    double off = 0.0, on = 0.0;
    if (round % 2 == 0) {
      off = solve_seconds(false);
      on = solve_seconds(true);
    } else {
      on = solve_seconds(true);
      off = solve_seconds(false);
    }
    ratios.push_back(on / off);
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  const double median = ratios[ratios.size() / 2];
  EXPECT_LE(median, 1.05)
      << "attribution recording overhead out of budget: median on/off ratio "
      << median;
}

}  // namespace
}  // namespace sea
