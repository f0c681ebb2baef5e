#include "equilibration/equilibrator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <utility>

#include "obs/market_stats.hpp"
#include "obs/profiler.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace sea {

// Clearing target for market i of the given side.
void ClearingTarget(const MarketSide& side, std::size_t i, double& u,
                    double& v) {
  switch (side.mode) {
    case TotalsMode::kFixed:
      u = side.t0[i];
      v = 0.0;
      break;
    case TotalsMode::kElastic:
    case TotalsMode::kInterval:
      u = side.t0[i];
      v = -1.0 / (2.0 * side.weight[i]);
      break;
    case TotalsMode::kSam: {
      const double inv2a = 1.0 / (2.0 * side.weight[i]);
      u = side.t0[i] - side.coupling[i] * inv2a;
      v = -inv2a;
      break;
    }
  }
}

double SideTotalsDual(const MarketSide& side, std::span<const double> mult) {
  double z = 0.0;
  for (std::size_t i = 0; i < mult.size(); ++i) {
    double u = 0.0, v = 0.0;
    ClearingTarget(side, i, u, v);
    z += ResponseDual(u, v, mult[i]);
  }
  return z;
}

DenseMatrix ArcSlopes(const DenseMatrix& weights) {
  DenseMatrix q(weights.rows(), weights.cols());
  ArcSlopes(weights.Flat(), q.Flat());
  return q;
}

SparseMatrix ArcSlopes(const SparseMatrix& weights) {
  SparseMatrix q = weights;
  ArcSlopes(weights.Values(), q.MutableValues());
  return q;
}

BreakpointResult EquilibrateMarket(std::span<const double> centers,
                                   std::span<const double> slopes,
                                   std::span<const double> other_mult,
                                   double u, double v, BreakpointWorkspace& ws,
                                   std::span<double> x_out) {
  SEA_DCHECK(centers.size() == slopes.size());
  SEA_DCHECK(centers.size() == other_mult.size());
  ws.Resize(centers.size());
  BuildArcs(centers, slopes, other_mult, ws.p(), ws.q());
  BreakpointResult res = SolveMarket(ws, u, v);
  res.ops.flops += 2 * centers.size();  // arc construction
  if (!x_out.empty()) {
    SEA_DCHECK(x_out.size() == centers.size());
    Writeback(ws.p(), ws.q(), res.lambda, x_out);
    res.ops.flops += 2 * centers.size();
  }
  return res;
}

namespace {

using detail::OrderImage;

// A sweep's view of the crossing multipliers for seeding (see
// SortOrderCache). The shared order is sorted by the first market that
// needs it, so a sweep whose markets are not seedable never sorts.
class SharedOrder {
 public:
  // Seeds when the sort cache is not yet informed and the multipliers are
  // finite: from their order when they are not all zero, from the offsets
  // alone when they are.
  SharedOrder(const SweepOptions& opts, std::span<const double> mult)
      : mult_(mult) {
    if (opts.sort_cache == nullptr || opts.sort_cache->informed()) return;
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    bool nonzero = false;
    for (const double mu : mult) {
      if (!std::isfinite(mu)) return;
      nonzero |= mu != 0.0;
      lo = std::min(lo, mu);
      hi = std::max(hi, mu);
      magnitude_ = std::max(magnitude_, std::abs(mu));
    }
    mode_ = nonzero ? Mode::kByMult : Mode::kZero;
    spread_ = hi - lo;
  }

  bool seeding() const { return mode_ != Mode::kNone; }
  bool zero() const { return mode_ == Mode::kZero; }
  double spread() const { return spread_; }        // max - min
  double magnitude() const { return magnitude_; }  // max |multiplier|

  // The crossing indices by descending multiplier, ties by index. Sorted
  // once, by whichever worker asks first.
  std::span<const std::uint32_t> ByMult() {
    std::call_once(sorted_, [this] {
      by_mult_.resize(mult_.size());
      std::iota(by_mult_.begin(), by_mult_.end(), 0u);
      std::sort(by_mult_.begin(), by_mult_.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return mult_[a] > mult_[b] || (mult_[a] == mult_[b] && a < b);
                });
    });
    return by_mult_;
  }

 private:
  enum class Mode { kNone, kZero, kByMult };
  std::span<const double> mult_;
  Mode mode_ = Mode::kNone;
  double spread_ = 0.0, magnitude_ = 0.0;
  std::once_flag sorted_;
  std::vector<std::uint32_t> by_mult_;
};

// The distance buckets per class (see kSeedClassUlps): bucket b holds the
// offsets kClassSteps - b image steps above the class's first, so the
// buckets run from the largest offset down. An arc's key is its class times
// kClassBuckets plus its bucket.
constexpr std::uint64_t kClassSteps =
    2 * static_cast<std::uint64_t>(kSeedClassUlps);
constexpr std::size_t kClassBuckets = 2 * kClassSteps + 1;
static_assert(kSeedMaxClasses * kClassBuckets <= 256, "keys are bytes");

// Classifies one market's offsets o_j = centers_j/slopes_j (the negated
// breakpoints at zero multiplier, in the kernel's arithmetic), one division
// each, into oc. Stops at the first offset past the class limit. The keys
// go to the worker's scratch first, so a market found unseedable allocates
// nothing. Only the zero sweep needs the buckets (kBuckets); without them
// every key is its class's first and oc is not exact.
template <bool kBuckets>
void ClassifyOffsets(std::span<const double> centers,
                     std::span<const double> slopes,
                     std::vector<std::uint8_t>& key, OffsetClasses& oc) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const std::size_t n = centers.size();
  const std::size_t max_classes =
      std::min(kSeedMaxClasses, n / kSeedArcsPerClass);
  oc.state = OffsetClasses::kUnseedable;
  if (max_classes == 0) return;  // too few arcs to be seedable
  key.resize(n);
  // Each arc tests every class so far without a branch on the outcome (the
  // classes interleave unpredictably) and takes the first it matches.
  double tol[kSeedMaxClasses] = {};
  std::uint64_t image[kSeedMaxClasses] = {};
  std::size_t classes = 0;
  bool exact = true;
  for (std::size_t j = 0; j < n; ++j) {
    const double o = centers[j] / slopes[j];
    unsigned match = 0;
    for (std::size_t c = 0; c < classes; ++c)
      match |= static_cast<unsigned>(std::abs(o - oc.rep[c]) <= tol[c]) << c;
    std::size_t c = static_cast<std::size_t>(std::countr_zero(match));
    if (match == 0) {
      if (classes == max_classes) return;  // not seedable
      c = classes++;
      oc.rep[c] = o;
      tol[c] = kSeedClassUlps * kEps * std::abs(o);
      if constexpr (kBuckets) image[c] = OrderImage(o);
      oc.reach = std::max(oc.reach, std::abs(o));
      exact &= std::isfinite(o);
    }
    std::uint64_t b = 0;
    if constexpr (kBuckets) {
      b = image[c] + kClassSteps - OrderImage(o);
      exact &= b < kClassBuckets;
      if (b >= kClassBuckets) b = 0;
    }
    key[j] = static_cast<std::uint8_t>(c * kClassBuckets + b);
    oc.deviation = std::max(oc.deviation, std::abs(o - oc.rep[c]));
    ++oc.size[c];
  }
  oc.state = OffsetClasses::kSeedable;
  oc.exact = kBuckets && exact;
  oc.key.assign(key.begin(), key.begin() + n);
  oc.count = static_cast<std::uint8_t>(classes);
}

// The zero sweep's seed of a market that holds no order: its exact KeyLess
// order at zero multipliers, where b_j = -o_j. Classes from the largest
// first offset down, each class's buckets in turn (offsets descending), and
// within a bucket (equal offsets) arc order, by a stable counting sort. The
// classes' occupied buckets bound their offsets, so a market whose classes
// interleave keeps no order, and cold-sorts.
void SeedFromOffsets(const OffsetClasses& oc, MarketOrder& order) {
  if (!oc.exact) return;
  std::uint32_t start[kSeedMaxClasses * kClassBuckets] = {};
  for (const std::uint8_t key : oc.key) ++start[key];
  std::size_t by_rep[kSeedMaxClasses];  // classes by descending first
  for (std::size_t c = 0; c < oc.count; ++c) {
    std::size_t k = c;
    for (; k > 0 && oc.rep[by_rep[k - 1]] < oc.rep[c]; --k)
      by_rep[k] = by_rep[k - 1];
    by_rep[k] = c;
  }
  std::uint32_t next = 0;
  std::uint64_t floor = 0;  // image of the previous class's smallest offset
  for (std::size_t r = 0; r < oc.count; ++r) {
    std::uint32_t* bucket = start + by_rep[r] * kClassBuckets;
    std::size_t first = kClassBuckets, last = 0;
    for (std::size_t b = 0; b < kClassBuckets; ++b) {
      const std::uint32_t size = bucket[b];
      bucket[b] = next;
      next += size;
      if (size != 0) {
        first = std::min(first, b);
        last = b;
      }
    }
    const std::uint64_t top = OrderImage(oc.rep[by_rep[r]]) + kClassSteps;
    if (r > 0 && top - first >= floor) return;  // interleaved
    floor = top - last;
  }
  order.perm.resize(oc.key.size());
  for (std::size_t j = 0; j < oc.key.size(); ++j)
    order.perm[start[oc.key[j]]++] = static_cast<std::uint32_t>(j);
}

// Seeds one seedable market's order in a seeding sweep against nonzero
// multipliers. A market whose multiplier spread is noise drops its order
// (it cold-sorts) and returns true; any other gets, from the largest offset
// class to the smallest, each class's arcs in the order arcs_by_mult()
// lists them (the shared order): b_j = -o_j - mu_j, so within a class
// descending multipliers are ascending breakpoints.
template <class ArcsByMultFn>
bool SeedFromMult(const OffsetClasses& oc, const SharedOrder& shared,
                  ArcsByMultFn arcs_by_mult, MarketOrder& order) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const double noise = oc.deviation + kEps * (oc.reach + shared.magnitude());
  if (!(shared.spread() > kSeedNoiseMargin * noise)) {
    order.perm.clear();
    return true;
  }
  std::uint32_t start[kSeedMaxClasses] = {};
  for (std::size_t c = 0; c < oc.count; ++c)
    for (std::size_t d = 0; d < oc.count; ++d)
      if (oc.rep[d] > oc.rep[c]) start[c] += oc.size[d];
  order.perm.resize(oc.key.size());
  for (const std::uint32_t j : arcs_by_mult())
    order.perm[start[oc.key[j] / kClassBuckets]++] = j;
  return false;
}

// The one sweep body: solves markets [0, markets) of a side, in chunks
// claimed by the pool's workers. The layout enters through callables:
// build_arcs(i, ws) fills ws with market i's arcs and returns their count;
// allocations(i) is where market i's allocations go (empty = nowhere). A
// seeding sweep also reads offsets(i), market i's (centers, slopes) pair,
// and arcs_by_mult(i), its arcs (indices into them) in the shared order;
// the first sweep given a SideDual reads offsets(i) for its constants.
template <class BuildArcsFn, class AllocationsFn, class OffsetsFn,
          class ArcsByMultFn>
SweepStats Sweep(std::size_t markets, const MarketSide& side,
                 std::span<double> mult_out, const SweepOptions& opts,
                 const SharedOrder& shared, BuildArcsFn build_arcs,
                 AllocationsFn allocations, OffsetsFn offsets,
                 ArcsByMultFn arcs_by_mult) {
  SEA_CHECK(mult_out.size() == markets);
  SEA_CHECK(side.t0.size() == markets);
  if (side.mode != TotalsMode::kFixed)
    SEA_CHECK(side.weight.size() == markets);
  if (side.mode == TotalsMode::kSam)
    SEA_CHECK(side.coupling.size() == markets);
  if (side.mode == TotalsMode::kInterval)
    SEA_CHECK(side.lo.size() == markets && side.hi.size() == markets);
  if (opts.sort_cache != nullptr)
    SEA_CHECK_MSG(opts.sort_cache->size() == markets,
                  "sort cache not sized for this sweep side");
  const std::size_t workers = WorkerCount(opts.pool);
  SEA_CHECK_MSG(opts.scratch.size() >= workers,
                "sweep scratch needs one slot per pool worker");
  const std::span<SweepSlot> slots = opts.scratch.first(workers);
  const bool seeding = shared.seeding();
  SideDual* dual = opts.dual;
  const bool fill_constant = dual != nullptr && dual->constant.empty();
  if (dual != nullptr) {
    SEA_CHECK(side.mode == TotalsMode::kElastic);
    if (fill_constant) dual->constant.resize(markets);
    SEA_CHECK(dual->constant.size() == markets);
    dual->share.resize(markets);
  }

  SweepStats stats;
  for (SweepSlot& slot : slots) {
    slot.ops = OpCounts{};
    slot.reuses = 0;
    slot.prefixes = 0;
    slot.max_change = 0.0;
    slot.seed_noise = false;
  }

  const char* phase =
      opts.profile_phase != nullptr ? opts.profile_phase : "equilibrate.sweep";
  // A worker runs this body once per claimed chunk, so per-worker
  // accumulators use += throughout.
  obs::MarketAttribution* attr = opts.attribution;
  ForRangeWorker(opts.pool, markets,
                 [&](std::size_t begin, std::size_t end, std::size_t w) {
    obs::ProfScope prof(phase);
    SweepSlot& slot = slots[w];
    BreakpointWorkspace& wksp = slot.ws;
    Stopwatch market_sw;
    for (std::size_t i = begin; i < end; ++i) {
      if (attr != nullptr) market_sw.Restart();
      double u = 0.0, v = 0.0;
      ClearingTarget(side, i, u, v);
      MarketOrder* order =
          opts.sort_cache != nullptr ? opts.sort_cache->At(i) : nullptr;
      if (seeding) {
        const auto [centers, slopes] = offsets(i);
        OffsetClasses& oc = opts.sort_cache->Classes(i);
        // The zero sweep seeds only the markets it finds without an order:
        // a stored one is already exact unless the centers moved.
        const bool seed =
            !shared.zero() || order->perm.size() != centers.size();
        if (seed && oc.state == OffsetClasses::kUnclassified) {
          if (shared.zero())
            ClassifyOffsets<true>(centers, slopes, slot.offset_class, oc);
          else
            ClassifyOffsets<false>(centers, slopes, slot.offset_class, oc);
        }
        if (seed && oc.state == OffsetClasses::kSeedable) {
          if (shared.zero())
            SeedFromOffsets(oc, *order);
          else
            slot.seed_noise |= SeedFromMult(
                oc, shared, [&] { return arcs_by_mult(i); }, *order);
        }
      }
      const std::size_t arcs = build_arcs(i, wksp);
      BreakpointResult res =
          side.mode == TotalsMode::kInterval
              ? SolveMarketBox(wksp, u, v, side.lo[i], side.hi[i], order)
              : SolveMarket(wksp, u, v, order);
      res.ops.flops += 2 * arcs;  // arc construction
      SEA_INTERNAL_CHECK(res.feasible);
      mult_out[i] = res.lambda;
      if (dual != nullptr) {
        if (fill_constant) {
          const auto [centers, slopes] = offsets(i);
          dual->constant[i] = DualArcConstant(centers, slopes);
        }
        dual->share[i] =
            MarketDualShare(wksp, dual->constant[i], u, v, res.lambda);
      }
      const std::span<double> xrow = allocations(i);
      if (!xrow.empty()) {
        // Keep the allocations being overwritten (the previous check's,
        // on a check iteration) for the kXChange fold.
        slot.before.assign(xrow.begin(), xrow.end());
        Writeback(wksp.p(), wksp.q(), res.lambda, xrow);
        slot.max_change =
            std::max(slot.max_change, MaxAbsChange(xrow, slot.before));
        res.ops.flops += 2 * arcs;
      }
      if (attr != nullptr)
        attr->RecordSolve(opts.attribution_base + i, res.active_count,
                          res.ops.breakpoints, market_sw.Seconds());
      if (res.order_reused) ++slot.reuses;
      if (res.prefix) ++slot.prefixes;
      slot.ops += res.ops;
    }
  });

  // Summed and maxed in worker order; max_change is order-free anyway
  // (MaxAbsChange never yields NaN).
  bool seed_noise = false;
  for (const SweepSlot& slot : slots) {
    stats.total_ops += slot.ops;
    stats.order_reuses += slot.reuses;
    stats.prefix_clearings += slot.prefixes;
    stats.max_change = std::max(stats.max_change, slot.max_change);
    seed_noise |= slot.seed_noise;
  }
  // Orders cold-sorted against noise carry no information either, so the
  // side seeds again next sweep; so it does after the zero sweep.
  if (seeding && !shared.zero()) opts.sort_cache->FinishSeeding(seed_noise);
  stats.markets = markets;
  return stats;
}

// Each CSR row's pattern positions in the shared order, CSR-aligned with
// `pattern`: a counting sort of all entries by their column's rank, O(nnz +
// cols), instead of an O(cols) walk of the shared order per row.
std::vector<std::uint32_t> RowsByMult(const SparseMatrix& pattern,
                                      std::span<const std::uint32_t> by_mult) {
  const std::span<const std::size_t> row_ptr = pattern.RowPtr();
  const std::span<const std::size_t> col_idx = pattern.ColIdx();
  std::vector<std::uint32_t> rank(by_mult.size());
  for (std::size_t r = 0; r < by_mult.size(); ++r)
    rank[by_mult[r]] = static_cast<std::uint32_t>(r);
  std::vector<std::size_t> first(by_mult.size() + 1, 0);
  for (const std::size_t c : col_idx) ++first[rank[c] + 1];
  for (std::size_t r = 0; r < by_mult.size(); ++r) first[r + 1] += first[r];
  struct Entry {
    std::uint32_t row, k;  // row, and position within it
  };
  std::vector<Entry> entries(col_idx.size());  // by column rank
  for (std::size_t i = 0; i + 1 < row_ptr.size(); ++i)
    for (std::size_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e)
      entries[first[rank[col_idx[e]]]++] = {
          static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(e - row_ptr[i])};
  std::vector<std::uint32_t> out(col_idx.size());
  std::vector<std::size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (const Entry& entry : entries) out[cursor[entry.row]++] = entry.k;
  return out;
}

}  // namespace

SweepStats EquilibrateSide(const DenseMatrix& centers,
                           const DenseMatrix& slopes,
                           std::span<const double> other_mult,
                           const MarketSide& side, std::span<double> mult_out,
                           DenseMatrix* x_out, const SweepOptions& opts) {
  SEA_CHECK(slopes.SameShape(centers));
  SEA_CHECK(other_mult.size() == centers.cols());
  if (x_out != nullptr) SEA_CHECK(x_out->SameShape(centers));
  SharedOrder shared(opts, other_mult);
  return Sweep(
      centers.rows(), side, mult_out, opts, shared,
      [&](std::size_t i, BreakpointWorkspace& ws) {
        ws.Resize(centers.cols());
        BuildArcs(centers.Row(i), slopes.Row(i), other_mult, ws.p(), ws.q());
        return centers.cols();
      },
      [&](std::size_t i) {
        return x_out != nullptr ? x_out->Row(i) : std::span<double>{};
      },
      [&](std::size_t i) { return std::pair(centers.Row(i), slopes.Row(i)); },
      // Arc j is crossing index j: every market walks the shared order.
      [&](std::size_t) { return shared.ByMult(); });
}

SweepStats EquilibrateSide(const SparseMatrix& centers,
                           const SparseMatrix& slopes,
                           std::span<const double> other_mult,
                           const MarketSide& side, std::span<double> mult_out,
                           SparseMatrix* x_out, const SweepOptions& opts) {
  SEA_CHECK(slopes.rows() == centers.rows() && slopes.nnz() == centers.nnz());
  SEA_CHECK(other_mult.size() == centers.cols());
  if (x_out != nullptr)
    SEA_CHECK(x_out->rows() == centers.rows() && x_out->nnz() == centers.nnz());
  SharedOrder shared(opts, other_mult);
  std::once_flag scattered;
  std::vector<std::uint32_t> rows_by_mult;
  return Sweep(
      centers.rows(), side, mult_out, opts, shared,
      [&](std::size_t i, BreakpointWorkspace& ws) {
        const auto cols = centers.RowCols(i);
        ws.Resize(cols.size());
        BuildArcsGather(centers.RowValues(i), slopes.RowValues(i), other_mult,
                        cols, ws.p(), ws.q());
        return cols.size();
      },
      [&](std::size_t i) {
        return x_out != nullptr ? x_out->MutableRowValues(i)
                                : std::span<double>{};
      },
      [&](std::size_t i) {
        return std::pair(centers.RowValues(i), slopes.RowValues(i));
      },
      [&](std::size_t i) {
        std::call_once(scattered, [&] {
          rows_by_mult = RowsByMult(centers, shared.ByMult());
        });
        const std::size_t begin = centers.RowPtr()[i];
        return std::span<const std::uint32_t>(rows_by_mult)
            .subspan(begin, centers.RowPtr()[i + 1] - begin);
      });
}

}  // namespace sea
