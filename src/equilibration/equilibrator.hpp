// Row/column equilibration sweeps (Steps 1 and 2 of SEA, paper Section 3.1).
//
// One sweep solves all m row markets (or all n column markets)
// *independently* — this is exactly the parallel phase the paper allocates to
// distinct processors. The same function serves both directions: the caller
// passes centers/slopes in sweep-major layout (row-major for row sweeps, the
// transposed copies for column sweeps) so every market reads contiguous
// memory. One sweep loop serves the dense and the sparse (CSR) layouts; they
// differ only in how market i's arcs are built and where its allocations go.
// The weights enter as arc slopes q = 1/(2 gamma), computed once per solve
// (ArcSlopes below): they never change while the multipliers do.
//
// For row sweeps over a fixed-totals problem, market i solves
//
//   min  sum_j gamma_ij (x_ij - c_ij)^2 - sum_j mu_j x_ij
//   s.t. sum_j x_ij = s0_i, x >= 0
//
// whose KKT allocation is x_ij = max(0, c_ij + (lambda_i + mu_j)/(2 gamma_ij))
// — an Arc with q_j = 1/(2 gamma_ij), p_j = c_ij + mu_j * q_j. The elastic
// and SAM variants change only the right-hand side of the clearing equation
// (see MarketSide below).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "equilibration/breakpoint_solver.hpp"
#include "linalg/dense_matrix.hpp"
#include "problems/types.hpp"
#include "sparse/sparse_matrix.hpp"

namespace sea {

class ThreadPool;

namespace obs {
class MarketAttribution;
}  // namespace obs

// Seeding limits (docs/KERNELS.md, "One order per sweep"). A market is
// seedable when its offsets o = c/q fall into at most kSeedMaxClasses
// classes, offsets within kSeedClassUlps ulps of a class's first sharing it,
// with at least kSeedArcsPerClass arcs per class on average. Classifying a
// market stops at the first offset past min(kSeedMaxClasses, arcs /
// kSeedArcsPerClass) classes. Each offset also gets its distance, in
// order-preserving bit-image steps, from its class's first: kSeedClassUlps
// ulps of a class's binade are at most 2 * kSeedClassUlps steps of the
// binade below, and the zero sweep orders a class by a counting sort of
// those distances. A market whose offsets are not finite, or whose classes
// interleave, is left to the zero sweep's cold sort. A seedable market is
// seeded from nonzero multipliers only when their spread (max - min)
// exceeds kSeedNoiseMargin times its breakpoint noise: its largest
// within-class offset deviation plus one ulp of its largest |offset| +
// |multiplier|. Otherwise the multipliers are equal up to rounding (Table
// 1's totals are a factor times the margins), any order of them is noise,
// and the market cold-sorts. The order that cold sort stores is noise too,
// so the side stays uninformed.
inline constexpr std::size_t kSeedMaxClasses = 4;
inline constexpr std::size_t kSeedArcsPerClass = 4;
inline constexpr double kSeedClassUlps = 4.0;
inline constexpr double kSeedNoiseMargin = 0x1p20;

// One market's offset classes (see the seeding limits above), found by the
// first seeding sweep that meets the market.
struct OffsetClasses {
  enum State : std::uint8_t { kUnclassified, kUnseedable, kSeedable };
  State state = kUnclassified;
  // Classified by the zero sweep, with finite offsets each within its
  // class's buckets.
  bool exact = false;
  std::uint8_t count = 0;  // classes
  // Per arc: its class times the buckets per class, plus its bucket (the
  // zero sweep's; 0 otherwise).
  std::vector<std::uint8_t> key;
  double rep[kSeedMaxClasses] = {};  // each class's first offset
  std::uint32_t size[kSeedMaxClasses] = {};  // arcs per class
  double deviation = 0.0;  // largest |offset - its class's first|
  double reach = 0.0;      // largest |class first|
};

// Per-market breakpoint orders persisted across sweeps (docs/PARALLELISM.md,
// "Sort reuse"), and the offset classes that seed them. One cache per sweep
// side (markets keep their index between sweeps); each market is touched by
// exactly one worker per sweep, so slots need no synchronization.
//
// A side seeds the orders it has not yet learned (docs/KERNELS.md, "One
// order per sweep"). Under chi-square weights (gamma = 1/x0) every market
// of a table is seedable.
//  - Against all-zero crossing multipliers (the zero sweep of a cold start)
//    the breakpoints are exactly -o, so each seedable market that holds no
//    order yet gets its exact KeyLess order from its offsets alone: classes
//    from the largest offset down, offsets descending within a class, ties
//    by arc index. The repair finds nothing to move. Those orders say
//    nothing about nonzero multipliers, so the side stays uninformed.
//  - Against nonzero ones, each sweep is a seeding sweep until the side is
//    informed: it sorts the multipliers once, and every seedable market gets
//    the arcs of each class in that shared order, classes from the largest
//    offset to the smallest, as the order SolveMarket repairs. The side is
//    informed after a seeding sweep in which no market found the
//    multipliers to be noise, unless that seed was provisional: the column
//    side's first seed after a cold start answers multipliers that answered
//    mu = 0, so it seeds once more, from the next sweep's multipliers.
// Each market is classified once, by the first seeding sweep that meets it,
// and keeps its classes until Reset: a solve's offsets do not change. (A
// caller whose centers move between sweeps, like RC's projection steps,
// seeds from the first classes; any seed is only a hint the repair
// completes, so the bits do not depend on it.)
class SortOrderCache {
 public:
  // Drops all learned orders and classes and sizes the cache for `markets`
  // markets.
  void Reset(std::size_t markets) {
    orders_.clear();
    orders_.resize(markets);
    classes_.clear();
    classes_.resize(markets);
    informed_ = false;
    provisional_ = false;
  }
  std::size_t size() const { return orders_.size(); }
  MarketOrder* At(std::size_t market) {
    return market < orders_.size() ? &orders_[market] : nullptr;
  }
  OffsetClasses& Classes(std::size_t market) { return classes_[market]; }
  // True once a seeding sweep of this side met no noise (see above): from
  // then on its stored orders are repaired as they are.
  bool informed() const { return informed_; }
  // Makes the side's next seeding sweep provisional: it seeds, and the side
  // stays uninformed and seeds again the sweep after.
  void MarkSeedProvisional() { provisional_ = true; }
  // Ends a seeding sweep against nonzero multipliers.
  void FinishSeeding(bool noise) {
    informed_ = !noise && !provisional_;
    provisional_ = false;
  }

 private:
  std::vector<MarketOrder> orders_;
  std::vector<OffsetClasses> classes_;
  bool informed_ = false;
  bool provisional_ = false;
};

// Describes the constraint side being equilibrated.
struct MarketSide {
  TotalsMode mode = TotalsMode::kFixed;
  // Row sweep: s0; column sweep: d0 (elastic/fixed) or s0 (SAM).
  std::span<const double> t0;
  // Row sweep: alpha; column sweep: beta (elastic) or alpha (SAM).
  // Ignored for kFixed.
  std::span<const double> weight;
  // SAM only: the opposite side's multiplier at the *same* account index
  // (mu for row sweeps, the freshly-computed lambda for column sweeps),
  // entering the elastic response S_i = t0_i - (own + coupling_i)/(2 w_i).
  std::span<const double> coupling;
  // Interval mode only: box bounds on the totals; the clearing response is
  // the clamped elastic response.
  std::span<const double> lo;
  std::span<const double> hi;
};

// One elastic side's shares of the dual value zeta (docs/KERNELS.md, "ζ
// from the sweep"). After a sweep of this side against the crossing
// multipliers m, zeta(this side's multipliers, m) is the sum of `share`
// in market order plus SideTotalsDual of the crossing side at m.
struct SideDual {
  // Per market, its DualArcConstant: filled by the first sweep that is
  // given this SideDual (empty until then), kept for the solve.
  std::vector<double> constant;
  // Per market, its MarketDualShare at the multiplier the sweep cleared.
  std::vector<double> share;
};

struct SweepStats {
  OpCounts total_ops;
  // Markets solved by completing the repair of a stored or seeded
  // breakpoint order this sweep (0 without a sort cache, and on a market's
  // first sweep unless the sweep seeded it).
  std::uint64_t order_reuses = 0;
  // Markets cleared on the prefix this sweep (docs/KERNELS.md, "Sort only
  // the prefix the sweep reads"): they neither repair nor store an order.
  std::uint64_t prefix_clearings = 0;
  // Markets solved this sweep (feeds SeaResult::kernel_markets and the
  // sea.kernel.scalar.markets counter).
  std::uint64_t markets = 0;
  // Largest |new - old| the sweep wrote into x_out (MaxAbsChange's fold,
  // so NaN differences are skipped); 0 when nothing was materialized.
  // Holding the previous check's primal in x_out makes this the kXChange
  // measure.
  double max_change = 0.0;
};

// One pool worker's sweep scratch: the market workspace and the worker's
// per-sweep accumulators, on cache lines of its own. A caller keeps one
// slot per worker (WorkerCount(pool)) alive across sweeps, so a warm sweep
// reuses every buffer and allocates nothing, and each worker keeps writing
// the memory it wrote last sweep.
struct alignas(64) SweepSlot {
  BreakpointWorkspace ws;
  // The allocations a materializing writeback overwrites, for the change.
  std::vector<double> before;
  // The offset class keys of the market being classified (see
  // OffsetClasses), kept only if it is seedable.
  std::vector<std::uint8_t> offset_class;
  OpCounts ops;
  std::uint64_t reuses = 0;
  std::uint64_t prefixes = 0;
  double max_change = 0.0;
  bool seed_noise = false;  // a market's seeding met noise multipliers
};

struct SweepOptions {
  ThreadPool* pool = nullptr;
  // Per-worker scratch, at least WorkerCount(pool) slots (required).
  std::span<SweepSlot> scratch;
  // Persisted per-market breakpoint orders: each market's first sweep
  // seeds or cold-sorts and stores its order, every later sweep repairs it,
  // and a side's seeding sweep seeds the orders that carry no information
  // (see SortOrderCache). Null = cold sorts every sweep. Must be sized to
  // this side's market count.
  SortOrderCache* sort_cache = nullptr;
  // Profiler span name wrapping each worker's chunk of the sweep (string
  // literal; nullptr = unnamed "equilibrate.sweep"). Lets the profile tell
  // row from column sweeps per worker track (obs/profiler.hpp).
  const char* profile_phase = nullptr;
  // Per-market attribution (obs/market_stats.hpp): when set, every market
  // solve records its active-set size, breakpoint count, and kernel seconds
  // under slot attribution_base + market index (the caller maps sweep sides
  // into the table: rows at base 0, columns at base m). Each market is
  // touched by exactly one worker per sweep, so the recording is
  // synchronization-free; null costs one branch per market.
  obs::MarketAttribution* attribution = nullptr;
  std::size_t attribution_base = 0;
  // Elastic sides only: when set, every market writes its share of zeta
  // (see SideDual) from the arcs and breakpoints its solve already holds.
  SideDual* dual = nullptr;
};

// The arc slopes q = 1/(2 w) of a weight matrix, elementwise, in the same
// layout (and, for a sparse matrix, the same pattern).
DenseMatrix ArcSlopes(const DenseMatrix& weights);
SparseMatrix ArcSlopes(const SparseMatrix& weights);

// Equilibrates all markets of one side.
//   centers, slopes  : sweep-major (market index = row of these matrices);
//                      slopes = ArcSlopes(weights)
//   other_mult       : multiplier of the crossing constraints (length =
//                      centers.cols())
//   side             : clearing-equation description (length = centers.rows())
//   mult_out         : this side's multipliers (length = centers.rows())
//   x_out            : if non-null, materialized allocations in sweep-major
//                      layout (same shape as centers)
SweepStats EquilibrateSide(const DenseMatrix& centers,
                           const DenseMatrix& slopes,
                           std::span<const double> other_mult,
                           const MarketSide& side, std::span<double> mult_out,
                           DenseMatrix* x_out, const SweepOptions& opts);

// The same sweep over a sparse side: market i ranges over the pattern
// entries of CSR row i, and other_mult is indexed by their column ids.
// slopes and x_out (if non-null) share centers' pattern.
SweepStats EquilibrateSide(const SparseMatrix& centers,
                           const SparseMatrix& slopes,
                           std::span<const double> other_mult,
                           const MarketSide& side, std::span<double> mult_out,
                           SparseMatrix* x_out, const SweepOptions& opts);

// Clearing-equation coefficients (u, v) for market i of a side, i.e. the
// right-hand side u + v*lambda of the market's scalar equation.
void ClearingTarget(const MarketSide& side, std::size_t i, double& u,
                    double& v);

// The totals part of zeta that a side contributes at multipliers mult
// (ResponseDual of each market's clearing response, in market order): the
// crossing side's term of a SideDual's zeta.
double SideTotalsDual(const MarketSide& side, std::span<const double> mult);

// Solves a single market (the per-market reference the sweep tests check
// EquilibrateSide against): arcs from one center/slope row with the cross
// multipliers, then clears against (u, v). Returns the market multiplier.
BreakpointResult EquilibrateMarket(std::span<const double> centers,
                                   std::span<const double> slopes,
                                   std::span<const double> other_mult,
                                   double u, double v, BreakpointWorkspace& ws,
                                   std::span<double> x_out);

}  // namespace sea
