#include "equilibration/equilibrator.hpp"

#include <algorithm>

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

// The one sweep body: solves markets [0, markets) of a side, in chunks
// claimed by the pool's workers. The layout enters through two callables:
// build_arcs(i, ws) fills ws with market i's arcs and returns their count;
// allocations(i) is where market i's allocations go (empty = nowhere).
template <class BuildArcsFn, class AllocationsFn>
SweepStats Sweep(std::size_t markets, const MarketSide& side,
                 std::span<double> mult_out, const SweepOptions& opts,
                 BuildArcsFn build_arcs, AllocationsFn allocations) {
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

  SweepStats stats;
  for (SweepSlot& slot : slots) {
    slot.ops = OpCounts{};
    slot.reuses = 0;
    slot.max_change = 0.0;
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
      const std::size_t arcs = build_arcs(i, wksp);
      BreakpointResult res =
          side.mode == TotalsMode::kInterval
              ? SolveMarketBox(wksp, u, v, side.lo[i], side.hi[i], order)
              : SolveMarket(wksp, u, v, order);
      res.ops.flops += 2 * arcs;  // arc construction
      SEA_INTERNAL_CHECK(res.feasible);
      mult_out[i] = res.lambda;
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
      slot.ops += res.ops;
    }
  });

  // Summed and maxed in worker order; max_change is order-free anyway
  // (MaxAbsChange never yields NaN).
  for (const SweepSlot& slot : slots) {
    stats.total_ops += slot.ops;
    stats.order_reuses += slot.reuses;
    stats.max_change = std::max(stats.max_change, slot.max_change);
  }
  stats.markets = markets;
  return stats;
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
  return Sweep(
      centers.rows(), side, mult_out, opts,
      [&](std::size_t i, BreakpointWorkspace& ws) {
        ws.Resize(centers.cols());
        BuildArcs(centers.Row(i), slopes.Row(i), other_mult, ws.p(), ws.q());
        return centers.cols();
      },
      [&](std::size_t i) {
        return x_out != nullptr ? x_out->Row(i) : std::span<double>{};
      });
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
  return Sweep(
      centers.rows(), side, mult_out, opts,
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
      });
}

}  // namespace sea
