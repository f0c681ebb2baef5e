// The market kernel: elementwise stages, the breakpoint sorts, and the
// clearing sweep. Compiled with -ffp-contract=off (src/CMakeLists.txt): a
// fused c + m*q would round differently from the separate multiply and add,
// and the pinned-bits tests hold the kernel to one floating-point meaning
// (docs/KERNELS.md).
#include "equilibration/breakpoint_solver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace sea {

double EvaluateSupply(std::span<const Arc> arcs, double lambda) {
  double s = 0.0;
  for (const Arc& a : arcs) {
    const double x = a.p + a.q * lambda;
    if (x > 0.0) s += x;
  }
  return s;
}

double EvaluateSupply(std::span<const double> p, std::span<const double> q,
                      double lambda) {
  double s = 0.0;
  for (std::size_t j = 0; j < p.size(); ++j) {
    const double x = p[j] + q[j] * lambda;
    if (x > 0.0) s += x;
  }
  return s;
}

void ArcSlopes(std::span<const double> weights, std::span<double> q) {
  const std::size_t n = weights.size();
  for (std::size_t j = 0; j < n; ++j) q[j] = 1.0 / (2.0 * weights[j]);
}

void BuildArcs(std::span<const double> centers, std::span<const double> slopes,
               std::span<const double> other_mult, std::span<double> p,
               std::span<double> q) {
  const std::size_t n = centers.size();
  for (std::size_t j = 0; j < n; ++j) {
    q[j] = slopes[j];
    p[j] = centers[j] + other_mult[j] * slopes[j];
  }
}

void BuildArcsGather(std::span<const double> centers,
                     std::span<const double> slopes,
                     std::span<const double> other_mult,
                     std::span<const std::size_t> cols, std::span<double> p,
                     std::span<double> q) {
  const std::size_t n = centers.size();
  for (std::size_t k = 0; k < n; ++k) {
    q[k] = slopes[k];
    p[k] = centers[k] + other_mult[cols[k]] * slopes[k];
  }
}

void Breakpoints(std::span<const double> p, std::span<const double> q,
                 std::span<double> b) {
  const std::size_t n = p.size();
  for (std::size_t j = 0; j < n; ++j) b[j] = -p[j] / q[j];
}

void Writeback(std::span<const double> p, std::span<const double> q,
               double lambda, std::span<double> x) {
  const std::size_t n = p.size();
  for (std::size_t j = 0; j < n; ++j)
    x[j] = std::max(0.0, p[j] + q[j] * lambda);
}

double DualArcConstant(std::span<const double> centers,
                       std::span<const double> slopes) {
  double k = 0.0;
  for (std::size_t j = 0; j < centers.size(); ++j)
    k += centers[j] * centers[j] / (2.0 * slopes[j]);
  return k;
}

double MarketDualShare(const BreakpointWorkspace& ws, double constant,
                       double u, double v, double lambda) {
  const std::span<const double> p = ws.p(), q = ws.q(), b = ws.breakpoints();
  double s = 0.0;
  for (std::size_t j = 0; j < p.size(); ++j)
    s += std::max(0.0, p[j] + q[j] * lambda) * std::max(0.0, lambda - b[j]);
  return constant - 0.5 * s + ResponseDual(u, v, lambda);
}

double ResponseDual(double u, double v, double lambda) {
  return lambda * (u + 0.5 * v * lambda);
}

double MaxAbsChange(std::span<const double> now,
                    std::span<const double> before) {
  const std::size_t n = now.size();
  double c[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    for (std::size_t l = 0; l < 4; ++l)
      c[l] = std::max(c[l], std::abs(now[j + l] - before[j + l]));
  for (; j < n; ++j) c[0] = std::max(c[0], std::abs(now[j] - before[j]));
  return std::max(std::max(c[0], c[1]), std::max(c[2], c[3]));
}

namespace {

using detail::SortKey;

// Strict weak order on sort keys: by breakpoint value, ties broken by
// original arc index. One TOTAL order shared by every sort and repair, so
// the prefix sums of the segment sweep — and therefore the clearing
// multiplier — are bit-identical whichever sort produced the array.
inline bool KeyLess(const SortKey& a, const SortKey& b) {
  return a.b < b.b || (a.b == b.b && a.idx < b.idx);
}

}  // namespace

namespace {

// Straight insertion sort of v[0..n). A key already in place (not less than
// its left neighbour) costs its one comparison and is left where it is; the
// others shift left exactly as plain straight insertion moves them, so the
// comparison and shift counts are straight insertion's.
detail::InsertionStats InsertionSortKeys(SortKey* v, std::size_t n,
                                         std::uint64_t max_shifts) {
  detail::InsertionStats s;
  for (std::size_t i = 1; i < n; ++i) {
    if (s.shifts > max_shifts) {
      s.complete = false;
      break;
    }
    ++s.comparisons;
    if (!KeyLess(v[i], v[i - 1])) continue;
    const SortKey key = v[i];
    std::size_t j = i - 1;
    v[i] = v[j];
    ++s.shifts;
    while (j > 0) {
      ++s.comparisons;
      if (!KeyLess(key, v[j - 1])) break;
      v[j] = v[j - 1];
      ++s.shifts;
      --j;
    }
    v[j] = key;
  }
  return s;
}

}  // namespace

detail::InsertionStats detail::InsertionSort(std::vector<SortKey>& v,
                                             std::uint64_t max_shifts) {
  return InsertionSortKeys(v.data(), v.size(), max_shifts);
}

namespace {

std::uint64_t Heapsort(std::vector<SortKey>& v) {
  std::uint64_t comparisons = 0;
  const std::size_t n = v.size();
  if (n < 2) return 0;

  auto sift_down = [&](std::size_t start, std::size_t end) {
    std::size_t root = start;
    for (;;) {
      std::size_t child = 2 * root + 1;
      if (child > end) break;
      if (child < end) {
        ++comparisons;
        if (KeyLess(v[child], v[child + 1])) ++child;
      }
      ++comparisons;
      if (!KeyLess(v[root], v[child])) break;
      std::swap(v[root], v[child]);
      root = child;
    }
  };

  for (std::size_t start = n / 2; start-- > 0;) sift_down(start, n - 1);
  for (std::size_t end = n - 1; end > 0; --end) {
    std::swap(v[0], v[end]);
    sift_down(0, end - 1);
  }
  return comparisons;
}

// Order-preserving bit image of a breakpoint: unsigned order on images is
// the value order on doubles (NaNs land past the infinities), with -0.0
// folded into +0.0 so the two tie, as they do under KeyLess.
inline std::uint64_t RadixImage(double b) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  std::uint64_t u = std::bit_cast<std::uint64_t>(b);
  if (u == kSign) u = 0;
  return (u & kSign) != 0 ? ~u : u | kSign;
}

// Stable LSD radix sort of the keys by RadixImage, in 8-bit digits. The keys
// must arrive in arc order: stability then breaks ties by arc index, so the
// result is KeyLess's order. A digit every key shares is skipped. tmp and
// counts are workspace scratch, so a warm workspace sorts without
// allocating. Requires at least one key; charges kRadixSortOpsPerKey * n
// comparisons (support/op_counter.hpp).
std::uint64_t RadixSort(std::vector<SortKey>& keys, std::vector<SortKey>& tmp,
                        std::vector<std::uint32_t>& counts) {
  constexpr std::size_t kDigits = 8;
  constexpr std::size_t kBuckets = 256;
  const std::size_t n = keys.size();
  tmp.resize(n);
  counts.assign(kDigits * kBuckets, 0);
  for (const SortKey& k : keys) {
    const std::uint64_t image = RadixImage(k.b);
    for (std::size_t d = 0; d < kDigits; ++d)
      ++counts[d * kBuckets + ((image >> (8 * d)) & 0xFF)];
  }
  const std::uint64_t first = RadixImage(keys[0].b);
  for (std::size_t d = 0; d < kDigits; ++d) {
    std::uint32_t* offset = counts.data() + d * kBuckets;
    const unsigned shift = static_cast<unsigned>(8 * d);
    if (offset[(first >> shift) & 0xFF] == n) continue;
    std::uint32_t sum = 0;
    for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
      const std::uint32_t count = offset[bucket];
      offset[bucket] = sum;
      sum += count;
    }
    for (const SortKey& k : keys)
      tmp[offset[(RadixImage(k.b) >> shift) & 0xFF]++] = k;
    keys.swap(tmp);
  }
  return kRadixSortOpsPerKey * n;
}

struct SweepHit {
  std::size_t k = 0;    // accepted segment: nodes[0..k] active
  double lambda = 0.0;  // (u - P_k) / (Q_k - v)
  bool found = false;   // no segment of the swept keys accepts
};

// Finds the first segment k whose clearing candidate does not overshoot its
// right edge, reading each sorted arc through its key: keys[k].b is the
// segment's left edge and p[keys[k].idx], q[keys[k].idx] the arc it
// activates. Only the segments up to the accepted one are read. `next` is
// the edge after the last of the len keys: +inf after all n, so the last
// segment always accepts on finite data, and the smallest left-out
// breakpoint after a prefix. The acceptance test is the multiply form
// u - P_k <= edge_{k+1} * (Q_k - v): equivalent to comparing the candidate
// (u - P_k)/(Q_k - v) against the segment edge, since Q_k - v > 0, with one
// division per accepted segment instead of one per swept segment.
SweepHit SweepSearch(const SortKey* keys, std::size_t len, double next,
                     const double* p, const double* q, double u, double v) {
  SweepHit hit;
  double p_sum = 0.0;
  double q_sum = 0.0;
  for (std::size_t k = 0; k < len; ++k) {
    const std::uint32_t j = keys[k].idx;
    p_sum += p[j];
    q_sum += q[j];
    const double denom = q_sum - v;  // > 0
    const double edge = k + 1 < len ? keys[k + 1].b : next;
    if (u - p_sum <= edge * denom) {
      hit.k = k;
      hit.lambda = (u - p_sum) / denom;
      hit.found = true;
      return hit;
    }
  }
  return hit;
}

// Clears the market against u + v*lambda over the sorted keys[0..len),
// followed by breakpoint `next` (see SweepSearch): sets result's lambda and
// active_count and adds the clearing's ops. Returns false when no segment
// accepts. Requires a feasible market (not v == 0 with u < 0) and, when
// v == 0 and u == 0, the first of all n keys in keys[0]. Inline: it is the
// tail of every SolveMarket, and a call per market solve shows on small
// markets.
inline bool ClearKeys(const SortKey* keys, std::size_t len, double next,
                      const double* p, const double* q, double u, double v,
                      BreakpointResult& result) {
  const double first = len > 0 ? keys[0].b : next;
  // Segment before the first breakpoint: supply is 0.
  // Clearing: 0 = u + v*lambda.
  if (v < 0.0) {
    const double lam = -u / v;
    ++result.ops.flops;
    ++result.ops.comparisons;
    if (lam <= first) {
      result.lambda = lam;
      result.active_count = 0;
      return true;
    }
  } else if (u == 0.0) {
    // Degenerate fixed total of zero: every lambda <= first breakpoint
    // clears; return the boundary (all allocations zero).
    result.lambda = first;
    result.active_count = 0;
    return true;
  }

  // Sweep segments. After activating the arcs of keys [0..k],
  // supply(lambda) = P_k + Q_k*lambda on [keys[k].b, keys[k+1].b].
  const SweepHit hit = SweepSearch(keys, len, next, p, q, u, v);
  if (!hit.found) return false;
  result.ops.flops += 4 * (hit.k + 1);
  result.ops.comparisons += hit.k + 1;
  result.lambda = hit.lambda;
  result.active_count = hit.k + 1;
  return true;
}

// Clears the market whose n keys are all sorted. Markets with no arcs, and
// infeasible ones (v == 0, u < 0), need no keys.
inline void ClearSorted(const std::vector<SortKey>& keys, const double* p,
                        const double* q, std::size_t n, double u, double v,
                        BreakpointResult& result) {
  if (n == 0) {
    // No arcs: total supply is 0; clearing requires u + v*lambda = 0.
    if (v < 0.0) {
      result.lambda = -u / v;
    } else {
      result.feasible = (u == 0.0);
      result.lambda = 0.0;
    }
    return;
  }
  if (v == 0.0 && u < 0.0) {
    result.feasible = false;
    return;
  }
  // The last segment always accepts (its right edge is +inf), so a miss can
  // only mean non-finite arc data poisoned the prefix sums.
  SEA_INTERNAL_CHECK(ClearKeys(keys.data(), n,
                               std::numeric_limits<double>::infinity(), p, q,
                               u, v, result));
}

// At most this many Newton steps tighten the prefix clearing's bound; each
// is one pass over the candidates it leaves.
constexpr std::size_t kPrefixNewtonSteps = 8;

// The most candidates a prefix clearing sorts: n/4, and never more than a
// straight insertion sort's kInsertionThreshold keys, so the candidate sort
// stays far from insertion's quadratic cost.
std::size_t PrefixLimit(std::size_t n) {
  return std::min(n / 4, kInsertionThreshold);
}

// The prefix clearing (docs/KERNELS.md, "Sort only the prefix the sweep
// reads") of the market whose breakpoints b the caller computed; keys has
// room for n. Returns false, leaving result as it was, when the market must
// sort every key: a NaN breakpoint (outside KeyLess's order), more than
// PrefixLimit(n) candidates, or no accepting segment among them.
bool ClearPrefix(const double* p, const double* q, const double* b,
                 std::size_t n, SortKey* keys, double u, double v, double cap,
                 BreakpointResult& result) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // S(lambda) >= p_j + q_j*lambda for every arc and q_j - v > 0, so the
  // crossing lies at or below each arc's own root with the response. No
  // answer depends on the bound's bits, so its reductions run in any order,
  // as vector reductions.
  double bound = cap;
#pragma omp simd reduction(min : bound)
  for (std::size_t j = 0; j < n; ++j) {
    const double root = (u - p[j]) / (q[j] - v);
    bound = root < bound ? root : bound;
  }
  // The keys at or below it, in arc order, branch-free; `rest` is the
  // smallest breakpoint left out.
  std::size_t len = 0;
  double rest = kInf;
  bool ordered = true;
  for (std::size_t j = 0; j < n; ++j) {
    const double bj = b[j];
    keys[len] = {bj, static_cast<std::uint32_t>(j)};
    const bool in = bj <= bound;
    len += in;
    const double out = in ? kInf : bj;
    rest = out < rest ? out : rest;
    ordered &= bj == bj;
  }
  if (!ordered) return false;
  // Newton steps from the right on the convex, increasing S(lambda) - u -
  // v*lambda: the tangent sum_{b_j <= bound} (p_j + q_j*lambda) - u -
  // v*lambda lies below it everywhere, so its root is again an upper bound.
  // Each step keeps the candidates at or below the new root; one that keeps
  // them all ends the steps.
  std::uint64_t scanned = 0;
  for (std::size_t step = 0; step < kPrefixNewtonSteps; ++step) {
    double p_sum = 0.0, q_sum = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      p_sum += p[keys[k].idx];
      q_sum += q[keys[k].idx];
    }
    scanned += len;
    const double newton = (u - p_sum) / (q_sum - v);
    std::size_t kept = 0;
    for (std::size_t k = 0; k < len; ++k) {
      const SortKey key = keys[k];
      keys[kept] = key;
      const bool in = key.b <= newton;
      kept += in;
      const double out = in ? kInf : key.b;
      rest = out < rest ? out : rest;
    }
    if (kept == len) break;
    len = kept;
  }
  if (len > PrefixLimit(n)) return false;
  // The candidates are exactly the first len keys of the full KeyLess order
  // and `rest` the next key's breakpoint, so this sweep makes the full
  // sweep's first tests, sums and division.
  BreakpointResult cleared = result;
  cleared.ops.comparisons +=
      2 * n + scanned +
      InsertionSortKeys(keys, len, ~std::uint64_t{0}).comparisons;
  cleared.ops.flops += 3 * n + 2 * scanned;
  if (!ClearKeys(keys, len, rest, p, q, u, v, cleared)) return false;
  cleared.prefix = true;
  result = cleared;
  return true;
}

// Whether a market skips the prefix clearing and sorts every key.
bool SortsEveryKey(std::size_t n, double u, double v,
                   const MarketOrder* order) {
  if (n < kPrefixMinArcs) return true;
  // u = v = 0 returns the first key's breakpoint, sign of zero included.
  if (v == 0.0 && u <= 0.0) return true;
  if (order == nullptr) return false;
  if (order->active == MarketOrder::kNotCleared)
    return order->perm.size() == n;  // a seed: repair it
  return order->active > PrefixLimit(n);
}

}  // namespace

struct detail::MarketKernel {
  static BreakpointResult Solve(BreakpointWorkspace& ws, double u, double v,
                                MarketOrder* order, const ColdSort* forced,
                                bool prefix, double bound_cap);
  static void ClearSorted(const BreakpointWorkspace& ws, double u, double v,
                          BreakpointResult& result) {
    sea::ClearSorted(ws.keys_, ws.p_.data(), ws.q_.data(), ws.n_, u, v,
                     result);
  }
};

BreakpointResult SolveMarket(BreakpointWorkspace& ws, double u, double v,
                             MarketOrder* order) {
  return detail::SolveMarket(ws, u, v, order, nullptr);
}

BreakpointResult SolveMarket(BreakpointWorkspace& ws, double u, double v,
                             ColdSort sort) {
  return detail::SolveMarket(ws, u, v, nullptr, &sort);
}

BreakpointResult detail::SolveMarket(BreakpointWorkspace& ws, double u,
                                     double v, MarketOrder* order,
                                     const ColdSort* forced,
                                     double bound_cap) {
  return MarketKernel::Solve(ws, u, v, order, forced, forced == nullptr,
                             bound_cap);
}

BreakpointResult detail::MarketKernel::Solve(BreakpointWorkspace& ws,
                                             double u, double v,
                                             MarketOrder* order,
                                             const ColdSort* forced,
                                             bool prefix, double bound_cap) {
  const std::size_t n = ws.n_;

  BreakpointResult result;
  SEA_CHECK_MSG(v <= 0.0, "elastic slope must be nonpositive");
  if (n == 0 || (v == 0.0 && u < 0.0)) {
    sea::ClearSorted(ws.keys_, nullptr, nullptr, n, u, v, result);
    return result;
  }

  // Breakpoints b_j = -p_j/q_j in natural arc order.
  auto& b = ws.b_;
  if (b.size() < n) b.resize(n);
  Breakpoints(std::span<const double>(ws.p_.data(), n),
              std::span<const double>(ws.q_.data(), n),
              std::span<double>(b.data(), n));
  result.ops.flops += n;  // breakpoint divisions
  result.ops.breakpoints = n;

  auto& keys = ws.keys_;
  keys.resize(n);
  if (prefix && !SortsEveryKey(n, u, v, order) &&
      ClearPrefix(ws.p_.data(), ws.q_.data(), b.data(), n, keys.data(), u, v,
                  bound_cap, result)) {
    if (order != nullptr)
      order->active = static_cast<std::uint32_t>(result.active_count);
    return result;
  }

  // Build sort keys — in the persisted order when repairing (the array is
  // then nearly sorted and insertion repairs it in O(n + inversions)), in
  // natural arc order for a cold sort.
  bool sorted = false;
  if (order != nullptr && order->perm.size() == n) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t j = order->perm[k];
      SEA_DCHECK(j < n && ws.q_[j] > 0.0);
      keys[k] = {b[j], j};
    }
    // A churned order costs up to n^2/4 shifts; past n*log2(n) of them a
    // cold sort is cheaper, so above kInsertionThreshold the repair gives up
    // and the market is cold-sorted below. The sweeps seed the orders that
    // carry no information from the crossing multipliers' order
    // (equilibration/equilibrator.hpp), so a hand-over is rare.
    const std::uint64_t budget =
        n > kInsertionThreshold ? n * std::bit_width(n)
                                : std::numeric_limits<std::uint64_t>::max();
    const InsertionStats pass = InsertionSort(keys, budget);
    result.ops.comparisons += pass.comparisons;
    result.ops.inversions += pass.shifts;
    sorted = pass.complete;
    result.order_reused = sorted;
  }
  if (!sorted) {
    // Arc order, which the radix sort's stability turns into the arc-index
    // tie-break.
    for (std::size_t j = 0; j < n; ++j) {
      SEA_DCHECK(ws.q_[j] > 0.0);
      keys[j] = {b[j], static_cast<std::uint32_t>(j)};
    }
    if (forced != nullptr) {
      result.ops.comparisons += *forced == ColdSort::kInsertion
                                    ? InsertionSort(keys).comparisons
                                    : Heapsort(keys);
    } else if (n <= kInsertionThreshold) {
      result.ops.comparisons += InsertionSort(keys).comparisons;
    } else {
      result.ops.comparisons +=
          RadixSort(keys, ws.radix_tmp_, ws.radix_counts_);
    }
  }

  if (order != nullptr) {
    // Persist the (repaired or freshly established) order for the next sweep.
    order->perm.resize(n);
    for (std::size_t k = 0; k < n; ++k) order->perm[k] = keys[k].idx;
  }

  sea::ClearSorted(keys, ws.p_.data(), ws.q_.data(), n, u, v, result);
  if (order != nullptr)
    order->active = static_cast<std::uint32_t>(result.active_count);
  return result;
}

BreakpointResult SolveMarketBox(BreakpointWorkspace& ws, double u, double v,
                                double lo, double hi, MarketOrder* order) {
  SEA_CHECK_MSG(v < 0.0, "interval clearing needs a strictly elastic slope");
  SEA_CHECK_MSG(0.0 <= lo && lo <= hi, "invalid total interval");

  // The response u + v*lambda is decreasing (v < 0): it sits at hi while
  // u + v*lambda >= hi, i.e. lambda <= (hi - u)/v, follows the affine middle
  // piece in between, and sits at lo for lambda >= (lo - u)/v. Clear against
  // each piece and accept the candidate that lands on its own piece;
  // monotonicity guarantees exactly one does (ties at junctions agree).
  const double enter_mid = (hi - u) / v;  // lambda where response leaves hi
  const double leave_mid = (lo - u) / v;  // lambda where response hits lo

  // Upper piece: constant hi. This solve sorts (or repairs) every key, with
  // no prefix clearing; the other pieces clear against the keys it leaves
  // sorted in ws.
  const BreakpointResult upper = detail::MarketKernel::Solve(
      ws, hi, 0.0, order, nullptr, false,
      std::numeric_limits<double>::infinity());
  if (upper.lambda <= enter_mid) return upper;
  OpCounts ops = upper.ops;
  const auto clear = [&](double piece_u, double piece_v) {
    BreakpointResult r;
    detail::MarketKernel::ClearSorted(ws, piece_u, piece_v, r);
    ops += r.ops;
    r.ops = ops;
    r.order_reused = upper.order_reused;
    return r;
  };

  // Middle piece: the affine response itself.
  BreakpointResult r = clear(u, v);
  if (r.lambda >= enter_mid && r.lambda <= leave_mid) return r;

  // Lower piece: constant lo.
  r = clear(lo, 0.0);
  SEA_INTERNAL_CHECK(r.feasible);
  // On this piece the candidate must sit at or beyond the junction; clamp
  // against degenerate ties.
  if (r.lambda < leave_mid) r.lambda = leave_mid;
  return r;
}

}  // namespace sea
