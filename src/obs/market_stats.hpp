// Per-market convergence attribution (docs/OBSERVABILITY.md, "Per-market
// attribution").
//
// The aggregate residual trajectory hides WHERE a solve spends its tail
// iterations: in practice a handful of slow markets dominate while the rest
// converged long ago. MarketAttribution is a compact SoA table over all
// m + n markets of a solve (row markets in slots [0, rows), column markets
// in slots [rows, rows + cols)) that the sweep workers and the iteration
// engine fill cooperatively:
//
//   * Sweep hot path (RecordSolve): cumulative solve count, breakpoint
//     count, kernel seconds, and the latest active-set size per market.
//     Allocation-free — Reset() sizes every array up front, and each market
//     slot is touched by exactly one worker per sweep (the same invariant
//     SortOrderCache relies on), so writes need no synchronization.
//   * Check phase (residual_scratch + CommitCheck, serial): the backend
//     fills each ROW market's residual contribution of the materialized
//     column-feasible iterate (column markets are exactly satisfied after
//     the column half-step and contribute zero by construction), and the
//     same call commits the check: active-set churn since the previous check
//     plus one per-check series entry. The commit may allocate (it appends
//     to the series) — the check phase is already the serial O(mn) part.
//
// Attribution is pay-for-use like every observer: SeaOptions::attribution
// is null by default and the sweeps pay only a branch per market when it is
// unset. The exported JSONL (WriteJsonl) consists of flat objects readable
// by obs/trace_reader.hpp and summarized by tools/market_report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sea::obs {

class MarketAttribution {
 public:
  // Sizes the table for one solve: `rows` row markets then `cols` column
  // markets, all cumulative tallies zeroed. reserve_checks preallocates the
  // per-check series (appends past it reallocate — still serial-phase only).
  void Reset(std::size_t rows, std::size_t cols,
             std::size_t reserve_checks = 64);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t markets() const { return rows_ + cols_; }

  // Sweep hot path. `slot` = this side's attribution base + market index;
  // `active` is the market's current active-set size (arcs with x > 0),
  // `breakpoints` the solve's breakpoint count, `seconds` its kernel time.
  void RecordSolve(std::size_t slot, std::size_t active,
                   std::uint64_t breakpoints, double seconds) {
    solves_[slot] += 1;
    breakpoints_[slot] += breakpoints;
    kernel_seconds_[slot] += seconds;
    active_[slot] = static_cast<std::uint32_t>(active);
  }

  // Check phase: the backend writes row market i's residual contribution
  // into residual_scratch()[i] (size rows()), then commits.
  std::span<double> residual_scratch() { return residual_scratch_; }

  // Appends one per-check entry: iteration, aggregate measure, the l1 sum
  // of the scratch contributions as the backend computed it, and the total
  // active-set churn (sum over markets of |active - active at the previous
  // check|; 0 on the first check, which only baselines the sets).
  void CommitCheck(std::size_t iteration, double measure, double residual_l1);

  struct CheckRow {
    std::size_t iteration = 0;
    double measure = 0.0;
    double residual_l1 = 0.0;
    std::uint64_t churn = 0;
  };
  const std::vector<CheckRow>& checks() const { return checks_; }
  // Row-market residual contributions recorded at checks()[check]
  // (size rows()).
  std::span<const double> residuals_at(std::size_t check) const;

  // Cumulative per-market tallies (size markets()).
  std::uint64_t solves(std::size_t slot) const { return solves_[slot]; }
  std::uint64_t breakpoints(std::size_t slot) const {
    return breakpoints_[slot];
  }
  double kernel_seconds(std::size_t slot) const {
    return kernel_seconds_[slot];
  }
  std::uint32_t active(std::size_t slot) const { return active_[slot]; }
  std::uint64_t churn(std::size_t slot) const { return churn_[slot]; }

  std::uint64_t total_solves() const;
  std::uint64_t total_churn() const;

  // Writes the attribution document as JSONL of flat objects (schema
  // docs/OBSERVABILITY.md): one "attribution" header, one
  // "attribution_check" line per check, one "attribution_residual" line per
  // row market per check, and one "attribution_market" summary line per
  // market. Returns false (leaving a partial file) on a write failure.
  bool WriteJsonl(const std::string& path, double epsilon,
                  const char* criterion) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Hot-path SoA tallies, indexed by market slot.
  std::vector<std::uint64_t> solves_;
  std::vector<std::uint64_t> breakpoints_;
  std::vector<double> kernel_seconds_;
  std::vector<std::uint32_t> active_;
  // Check-phase state: active sets at the previous commit, cumulative
  // per-market churn, the scratch row the backend fills, and the series.
  std::vector<std::uint32_t> prev_active_;
  std::vector<std::uint64_t> churn_;
  std::vector<double> residual_scratch_;
  std::vector<CheckRow> checks_;
  std::vector<double> residuals_;  // checks x rows, row-major by check
  bool baselined_ = false;
};

}  // namespace sea::obs
