// Operation accounting for the equilibration kernels.
//
// The paper's complexity analysis (Section 3.1) charges each row/column exact
// equilibration 7n + n ln n + 2n operations. The kernels are instrumented
// with exact per-subproblem counts, summed into each solve's OpCounts; the
// counts are deterministic, so tests pin them alongside the result bits.
#pragma once

#include <cstdint>

namespace sea {

// What a sort charges to OpCounts::comparisons. Straight insertion and
// heapsort count the key comparisons they make. The radix sort of long
// markets (equilibration/breakpoint_solver.cpp) compares no keys; it charges
// kRadixSortOpsPerKey per key instead: one histogram read plus one scatter
// per 8-bit digit of the 64-bit key, whether or not a digit's pass is
// skipped. The charge is a function of n alone, so it is deterministic and
// independent of thread count.
inline constexpr std::uint64_t kRadixSortOpsPerKey = 9;

struct OpCounts {
  std::uint64_t comparisons = 0;  // sort + sweep comparisons
  std::uint64_t flops = 0;        // floating-point add/mul in kernel + sweeps
  std::uint64_t breakpoints = 0;  // segments examined
  // Element moves performed by the order-repair pass: how far the market's
  // breakpoint order drifted since the previous sweep. Near zero once the
  // multipliers converge.
  std::uint64_t inversions = 0;

  OpCounts& operator+=(const OpCounts& o) {
    comparisons += o.comparisons;
    flops += o.flops;
    breakpoints += o.breakpoints;
    inversions += o.inversions;
    return *this;
  }

  // Difference of cumulative counts (telemetry per-check deltas); callers
  // guarantee o is an earlier snapshot of the same accumulation.
  OpCounts& operator-=(const OpCounts& o) {
    comparisons -= o.comparisons;
    flops -= o.flops;
    breakpoints -= o.breakpoints;
    inversions -= o.inversions;
    return *this;
  }

  // Scalar "work": comparisons plus flops.
  double Work() const {
    return static_cast<double>(comparisons) + static_cast<double>(flops);
  }
};

inline OpCounts operator+(OpCounts a, const OpCounts& b) { return a += b; }
inline OpCounts operator-(OpCounts a, const OpCounts& b) { return a -= b; }

}  // namespace sea
