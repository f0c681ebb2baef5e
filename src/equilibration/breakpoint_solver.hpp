// Exact equilibration of a single market: the closed-form solver that every
// row/column equilibrium subproblem of SEA reduces to.
//
// Problem: each row (supply market) or column (demand market) subproblem of
// the splitting equilibration algorithm is a singly-constrained quadratic
// knapsack. Its KKT conditions (paper eqs. (20)-(23)) say the optimal
// allocations are a piecewise-linear function of the constraint's multiplier:
//
//    x_j(lambda) = max(0, p_j + q_j * lambda),   q_j > 0,
//
// and the multiplier solves the scalar "market clearing" equation
//
//    sum_j x_j(lambda) = u + v * lambda,         v <= 0,
//
// where the right-hand side is a fixed total (v = 0, paper Section 3.1.3) or
// an elastic affine supply/demand response (v < 0, Sections 3.1.1-3.1.2).
// The left side is piecewise-linear and nondecreasing with breakpoints
// b_j = -p_j / q_j; the right side is affine nonincreasing, so the crossing
// is unique and is found *exactly* by sorting the breakpoints and sweeping
// (Eydeland & Nagurney 1989's "exact equilibration").
//
// Sorting: the paper uses HEAPSORT for long arrays (Section 4.1.1) and
// STRAIGHT INSERTION for arrays of 10..120 elements (Section 5.1.1). A cold
// sort here is straight insertion up to kInsertionThreshold arcs and, above
// it, a stable LSD radix sort over the breakpoints' order-preserving bit
// image (8-bit digits, skipping digits every key shares), 2x (256 arcs) to
// 3.5x (4096 arcs) cheaper than heapsort (docs/KERNELS.md). Heapsort runs
// only when forced (ColdSort), to reproduce the paper's costs and validate
// its complexity model (7n + n ln n + 2n per market). Comparison sorts
// count their comparisons; the radix sort charges a fixed
// kRadixSortOpsPerKey per key (support/op_counter.hpp).
//
// Order repair (docs/PARALLELISM.md, "Sort reuse"): across SEA sweeps a
// market's breakpoint ORDER stabilizes as the multipliers converge — the same
// nearly-sorted regime accelerated iterative-scaling methods exploit. Every
// SEA sweep passes each market's MarketOrder: a solve without a stored
// order cold-sorts and stores the permutation; a solve with one builds the
// breakpoint array already permuted and repairs it with straight insertion
// — O(n + inversions) instead of a fresh O(n log n) sort, and a key already
// in place costs one comparison and no store — then persists the updated
// permutation. A sweep may also hand in a seeded permutation, built from
// the offsets' classes or from the crossing multipliers' order
// (equilibration/equilibrator.hpp, SortOrderCache): to the solver it is one
// more stored order to repair, and a market's first solve repairs its seed
// instead of cold-sorting. Above
// kInsertionThreshold arcs a repair that passes n*bit_width(n) shifts hands
// over to the radix sort, rebuilding the keys in arc order, so a churned
// order never costs O(n^2). Ties are broken by original arc index in every
// sort (the radix sort by stability), so cold sorts and repairs produce one
// total order and bit-identical clearing multipliers.
//
// Prefix clearing (docs/KERNELS.md, "Sort only the prefix the sweep
// reads"): the sweep reads only the active arcs plus one edge key, so a
// market of at least kPrefixMinArcs arcs first bounds the crossing from
// above — U = min_j (u - p_j)/(q_j - v), tightened by Newton steps from the
// right over the arcs still at or below the bound — keeps the keys at or
// below it (compacted in arc order, noting the smallest breakpoint left
// out), insertion-sorts only those and sweeps them, with the left-out
// minimum as the edge after the last. The candidates are exactly a KeyLess
// prefix of the full order and the edge exactly the next key, so the
// prefix sweep makes the full sweep's first tests, sums and division; if it
// accepts nowhere (a bound that rounded low), or more than
// min(n/4, kInsertionThreshold) keys remain, or a breakpoint is NaN, the
// market sorts every key as above. The bound decides speed, never answers.
// A market whose last clearing activated more arcs than that, or whose
// seeded order has not cleared yet, goes straight to the full sort, and so
// do interval markets (SolveMarketBox clears three pieces against the full
// key array). A prefix clearing neither reads nor stores the order.
//
// Layout: the workspace holds the market as a structure of arrays (contiguous
// p[], q[] the caller fills, plus breakpoint and sort-key scratch). The sweep
// reads the sorted market through the keys, so it touches only the arcs of
// the segments it visits. The elementwise stages — arc construction from
// per-solve slopes, breakpoints, allocation writeback — are plain functions
// below that the sweeps (equilibration/equilibrator.hpp) call directly
// around SolveMarket. Their arithmetic
// is fixed (docs/KERNELS.md): breakpoint_solver.cpp is compiled with
// -ffp-contract=off, ties break by arc index, and the prefix sums of the
// sweep are sequential, so every sort, repair and thread count clears each
// market to the same bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "support/op_counter.hpp"

namespace sea {

// One allocation arc of the market: x_j(lambda) = max(0, p + q*lambda).
// Convenience AoS view for tests and one-off callers; the hot paths fill the
// workspace's SoA arrays directly.
struct Arc {
  double p = 0.0;
  double q = 0.0;  // must be > 0
};

// A forced cold sort, for reproducing the paper's Section 4.1.1 (heapsort)
// and Section 5.1.1 (straight insertion) costs in the microbenches and the
// kernel tests. Solvers never force one: they repair persisted orders and
// cold-sort by the kInsertionThreshold rule (insertion, else radix).
enum class ColdSort {
  kInsertion,  // straight insertion sort (paper Section 5.1.1)
  kHeapsort,   // heapsort (paper Section 4.1.1)
};

// Cold-sort crossover between straight insertion and the radix sort. The
// paper quotes insertion for 10..120 elements (Section 5.1.1) — on its 1989
// testbed; on current x86-64 insertion still wins at 96 arcs and the radix
// sort at 128 and above (docs/KERNELS.md; bench/ablation_design_choices.cpp
// and micro_kernels' BM_MarketSolveCold vs BM_MarketSolveInsertion), so we
// keep the next binary magnitude above the paper's 120. If the microbenches
// move the crossover on new hardware, re-tune here.
inline constexpr std::size_t kInsertionThreshold = 128;

// Smallest market that tries the prefix clearing (see header comment).
// Smaller markets' cold sorts and repairs are both cheap, and the bound's
// passes would cost more than they save (docs/KERNELS.md).
inline constexpr std::size_t kPrefixMinArcs = 32;

struct BreakpointResult {
  double lambda = 0.0;
  std::size_t active_count = 0;  // arcs with x_j(lambda) > 0
  bool feasible = true;          // false only if v == 0 and u < 0
  bool order_reused = false;     // solved by completing a persisted order's
                                 // repair (no cold-sort hand-over)
  bool prefix = false;           // cleared on the prefix (no order read or
                                 // stored; never order_reused)
  OpCounts ops;
};

// One market's breakpoint order, persisted across sweeps. `perm` is the
// sorted order as indices into the arc array (empty until a solve sorts
// every key or a sweep seeds it; ignored whenever the arc count changes). A
// prefix clearing leaves it as it was.
struct MarketOrder {
  static constexpr std::uint32_t kNotCleared =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> perm;
  // Arcs active at the market's last clearing (kNotCleared before its
  // first): the prefix clearing's gate.
  std::uint32_t active = kNotCleared;
};

namespace detail {

// Sort element: breakpoint value plus the original arc index that breaks
// ties (16 bytes — half a {b,p,q,idx} node, so every sort moves half the
// data; the sweep reads p/q through idx instead).
struct SortKey {
  double b = 0.0;
  std::uint32_t idx = 0;
};

struct InsertionStats {
  std::uint64_t comparisons = 0;
  std::uint64_t shifts = 0;  // the inversion count, for a completed sort
  bool complete = true;
};

// The kernel's straight insertion sort by (b, idx), exposed for the kernel
// tests. Stops early, leaving v a permutation of its input and complete =
// false, once more than max_shifts elements have shifted.
InsertionStats InsertionSort(
    std::vector<SortKey>& v,
    std::uint64_t max_shifts = std::numeric_limits<std::uint64_t>::max());

}  // namespace detail

class BreakpointWorkspace;

// Solves sum_j max(0, p_j + q_j*lambda) = u + v*lambda over the market
// currently in ws. Preconditions: all q_j > 0, v <= 0, and u >= 0 when
// v == 0. The p/q arrays are left unchanged. The market first tries the
// prefix clearing where its size and *order allow (see header comment).
// Otherwise, with a non-null order holding a permutation of this market's
// arcs, that permutation seeds the sort and is repaired; without one the
// keys are cold-sorted by the kInsertionThreshold rule, and the sorted
// permutation is written back to *order when one is given. Every path
// clears to the same bits.
BreakpointResult SolveMarket(BreakpointWorkspace& ws, double u, double v,
                             MarketOrder* order = nullptr);

// The same solve with a forced cold sort of every key (no prefix clearing;
// no order is read or stored).
BreakpointResult SolveMarket(BreakpointWorkspace& ws, double u, double v,
                             ColdSort sort);

namespace detail {
// The kernel both overloads call. bound_cap caps the prefix clearing's
// bound: the kernel tests lower it to force a miss and the fallback, which
// must clear to the same bits.
BreakpointResult SolveMarket(
    BreakpointWorkspace& ws, double u, double v, MarketOrder* order,
    const ColdSort* forced,
    double bound_cap = std::numeric_limits<double>::infinity());

// The kernel's entry points into the workspace's scratch (defined in
// breakpoint_solver.cpp).
struct MarketKernel;
}  // namespace detail

// Reusable per-worker scratch arena for market solves; reuse across calls to
// avoid per-market allocation on the hot path. The market itself is the SoA
// pair p()/q(): callers Resize() then fill the spans (typically through
// BuildArcs), and SolveMarket keeps its breakpoint and sort-key arrays
// alongside.
class BreakpointWorkspace {
 public:
  // Sizes the market to n arcs; existing p/q contents beyond n are dropped.
  void Resize(std::size_t n) {
    n_ = n;
    if (p_.size() < n) {
      p_.resize(n);
      q_.resize(n);
    }
  }
  std::size_t size() const { return n_; }

  // The market bundle, valid after Resize: x_j(lambda) = max(0, p[j] +
  // q[j]*lambda) with q[j] > 0.
  std::span<double> p() { return {p_.data(), n_}; }
  std::span<double> q() { return {q_.data(), n_}; }
  std::span<const double> p() const { return {p_.data(), n_}; }
  std::span<const double> q() const { return {q_.data(), n_}; }
  // The breakpoints -p[j]/q[j] in arc order, valid after a SolveMarket of
  // this market (which computes them).
  std::span<const double> breakpoints() const { return {b_.data(), n_}; }

  // AoS convenience for tests and one-off callers.
  void Assign(std::span<const Arc> arcs) {
    Resize(arcs.size());
    for (std::size_t j = 0; j < arcs.size(); ++j) {
      p_[j] = arcs[j].p;
      q_[j] = arcs[j].q;
    }
  }
  void Assign(std::initializer_list<Arc> arcs) {
    Assign(std::span<const Arc>(arcs.begin(), arcs.size()));
  }

 private:
  friend struct detail::MarketKernel;
  std::size_t n_ = 0;
  // The market bundle (caller-filled; only the first n_ entries are live).
  std::vector<double> p_;
  std::vector<double> q_;
  // Solver scratch: unsorted breakpoints and the sort keys (all n sorted,
  // or the prefix clearing's candidates first). The sweep reads the sorted
  // market through the keys (p_[idx], q_[idx]), so nothing is gathered into
  // sorted order.
  std::vector<double> b_;
  std::vector<detail::SortKey> keys_;
  // Radix sort scratch: the ping-pong key buffer and per-digit counts.
  std::vector<detail::SortKey> radix_tmp_;
  std::vector<std::uint32_t> radix_counts_;
};

// Interval-total variant (Harrigan & Buchanan 1984 extension): clears
// against the *clamped* response
//
//    sum_j max(0, p_j + q_j*lambda) = clamp(u + v*lambda, lo, hi),
//
// the closed form of a market whose total is both penalized and box
// constrained (lo <= total <= hi). Requires v < 0 and 0 <= lo <= hi. The
// left side is nondecreasing and the right side nonincreasing, so the
// crossing is unique; it is found by testing the three response pieces
// against one sort (or repair) of the breakpoints, so each piece clears to
// the bits a SolveMarket against it would.
BreakpointResult SolveMarketBox(BreakpointWorkspace& ws, double u, double v,
                                double lo, double hi,
                                MarketOrder* order = nullptr);

// Evaluates sum_j max(0, p_j + q_j*lambda) — the left-hand side of the
// clearing equation, used by tests and by callers that need allocations
// after solving. Sequential summation (order-dependent).
double EvaluateSupply(std::span<const Arc> arcs, double lambda);
double EvaluateSupply(std::span<const double> p, std::span<const double> q,
                      double lambda);

// ---- Elementwise stages. All spans are length n unless noted; outputs may
// not alias inputs.

// q[j] = 1/(2*weights[j]): the arc slopes of a market's weights. A solve
// computes them once (ArcSlopes in equilibration/equilibrator.hpp), since
// the weights never change during it.
void ArcSlopes(std::span<const double> weights, std::span<double> q);

// p[j] = centers[j] + other_mult[j]*slopes[j], q[j] = slopes[j].
void BuildArcs(std::span<const double> centers, std::span<const double> slopes,
               std::span<const double> other_mult, std::span<double> p,
               std::span<double> q);

// Sparse-row (CSR) variant: other_mult is indexed through cols.
void BuildArcsGather(std::span<const double> centers,
                     std::span<const double> slopes,
                     std::span<const double> other_mult,
                     std::span<const std::size_t> cols, std::span<double> p,
                     std::span<double> q);

// b[j] = -p[j]/q[j] (exact negation, then division).
void Breakpoints(std::span<const double> p, std::span<const double> q,
                 std::span<double> b);

// x[j] = max(0, p[j] + q[j]*lambda), with std::max(0.0, v) semantics: +0.0
// for v in {-0.0, NaN}.
void Writeback(std::span<const double> p, std::span<const double> q,
               double lambda, std::span<double> x);

// ---- zeta from the sweep (docs/KERNELS.md, "ζ from the sweep"). With
// q = 1/(2 gamma), lambda - b[j] is zeta's arc term t = 2 gamma c + lambda
// + mu, and (p[j] + q[j]*lambda) * t = t^2/(2 gamma), so no arc divides.

// sum_j centers[j]^2/(2*slopes[j]) = sum_j gamma_j c_j^2: a market's arc
// part of zeta when no arc is active, constant for a solve.
double DualArcConstant(std::span<const double> centers,
                       std::span<const double> slopes);

// A market's share of zeta at any lambda (not only the clearing one):
// constant - 0.5 * sum_j max(0, p[j] + q[j]*lambda) * max(0, lambda -
// b[j]) + ResponseDual(u, v, lambda), over the arcs and breakpoints a
// SolveMarket of the market left in ws, in arc order.
double MarketDualShare(const BreakpointWorkspace& ws, double constant,
                       double u, double v, double lambda);

// lambda * (u + 0.5*v*lambda), the integral of the response u + v*t over
// [0, lambda]: a market's share of zeta's totals part (eq. (24):
// s0*lambda - lambda^2/(4 alpha)).
double ResponseDual(double u, double v, double lambda);

// The kXChange fold over one market: change = std::max(change,
// |now[j] - before[j]|) from 0.0. A NaN difference never wins a std::max,
// so the fold skips it, and the result is the largest non-NaN difference
// (+0.0 when there is none) whatever order the differences are taken in —
// which lets it run as four interleaved folds, off std::max's latency
// chain, and still return the serial fold's bits.
double MaxAbsChange(std::span<const double> now,
                    std::span<const double> before);

}  // namespace sea
