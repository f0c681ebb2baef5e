// Microbenchmarks for the library's hot kernels, in two parts.
//
// 1. The market kernel's timings (full market solves across market sizes,
//    cold-sorted and order-repaired, the elementwise stages alone, the
//    churned-order hand-over against the cold sort, a cold start's first
//    sweep with and without a sort cache, and the pool's region cost and a
//    converged SP120 sweep at 1/2/4 threads, and the serve request path's
//    hashing: frame CRC, cache keys, x_fingerprint) that
//    always run and emit the bench schema v2 JSON (BENCH_micro_kernels.json)
//    so tools/bench_diff can gate them across PRs. Accepts the standard
//    bench flags (--quick/--json/...; see bench_common.hpp).
//
// 2. The original google-benchmark suite (sort paths, row sweeps, pool
//    regions, dense matvec — the quantities behind the paper's
//    per-iteration cost model N = T n^2 (9 + log n)). Runs only when a
//    --benchmark* flag is passed (e.g. --benchmark_filter=.*), keeping
//    part 1 cheap for CI perf-smoke.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/large_diagonal.hpp"
#include "datasets/weights.hpp"
#include "equilibration/breakpoint_solver.hpp"
#include "equilibration/equilibrator.hpp"
#include "io/table_printer.hpp"
#include "linalg/kernels.hpp"
#include "obs/market_stats.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/solve_service.hpp"
#include "spe/spe_generator.hpp"
#include "support/crc32.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace sea;

void FillArcs(std::vector<Arc>& arcs, std::size_t n, Rng& rng) {
  arcs.resize(n);
  for (auto& a : arcs)
    a = {rng.Uniform(-100.0, 100.0), rng.Uniform(0.01, 5.0)};
}

// ---------------------------------------------------------------------------
// Part 1: the market kernel's timings (always runs; feeds bench_diff). The
// records keep the experiment name "kernel_backend" and the scalar_* metric
// names so the bench trajectory lines up across the removal of the SIMD
// backend (docs/KERNELS.md), and the sort=auto (cold sort by the
// kInsertionThreshold rule) / sort=reuse (persisted-order repair) dataset
// names outlive the sort-policy option for the same reason.

// One full market pipeline: arc build + clearing solve + allocation
// writeback — the exact per-market work of a sweep.
double TimeMarketUs(std::size_t n, std::size_t reps, bool repair) {
  Rng rng(7);
  std::vector<double> centers(n), weights(n), other(n), x(n);
  for (std::size_t j = 0; j < n; ++j) {
    centers[j] = rng.Uniform(-100.0, 100.0);
    weights[j] = rng.Uniform(0.05, 5.0);
    other[j] = rng.Uniform(-10.0, 10.0);
  }
  std::vector<double> slopes(n);
  ArcSlopes(weights, slopes);  // once per solve, not per sweep
  const double u = 0.6 * static_cast<double>(n);
  BreakpointWorkspace ws;
  MarketOrder order;
  MarketOrder* order_ptr = repair ? &order : nullptr;
  // Warm-up solve (establishes the persisted permutation, faults pages).
  ws.Resize(n);
  BuildArcs(centers, slopes, other, ws.p(), ws.q());
  (void)SolveMarket(ws, u, 0.0, order_ptr);
  // Best of three repetition means: this container has no CPU pinning, so a
  // single mean is at the mercy of scheduler migrations.
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) {
      ws.Resize(n);
      BuildArcs(centers, slopes, other, ws.p(), ws.q());
      const auto res = SolveMarket(ws, u, 0.0, order_ptr);
      Writeback(ws.p(), ws.q(), res.lambda, x);
      benchmark::DoNotOptimize(x.data());
    }
    best = std::min(best, sw.Seconds() * 1e6 / static_cast<double>(reps));
  }
  return best;
}

// The elementwise stages alone (arc build, breakpoints, writeback), without
// the sort and the prefix-sum sweep.
double TimeStagesUs(std::size_t n, std::size_t reps) {
  Rng rng(11);
  std::vector<double> centers(n), weights(n), other(n), b(n), x(n);
  for (std::size_t j = 0; j < n; ++j) {
    centers[j] = rng.Uniform(-100.0, 100.0);
    weights[j] = rng.Uniform(0.05, 5.0);
    other[j] = rng.Uniform(-10.0, 10.0);
  }
  std::vector<double> slopes(n), p(n), q(n);
  ArcSlopes(weights, slopes);
  BuildArcs(centers, slopes, other, p, q);  // warm-up
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) {
      BuildArcs(centers, slopes, other, p, q);
      Breakpoints(p, q, b);
      Writeback(p, q, 0.25, x);
      benchmark::DoNotOptimize(x.data());
    }
    best = std::min(best, sw.Seconds() * 1e6 / static_cast<double>(reps));
  }
  return best;
}

void RunMarketKernel(const bench::BenchOptions& opts, ExperimentLog& log) {
  std::cout << "market kernel (arc build + solve + writeback):\n";
  TablePrinter t({"market n", "sort", "us/solve"});
  for (std::size_t n : {10u, 120u, 1000u, 10000u}) {
    std::size_t reps = std::max<std::size_t>(20, 200000 / n);
    if (opts.quick) reps = std::max<std::size_t>(5, reps / 10);
    for (bool repair : {false, true}) {
      const char* sort_name = repair ? "reuse" : "auto";
      const double us = TimeMarketUs(n, reps, repair);
      t.AddRow({TablePrinter::Int(static_cast<long>(n)), sort_name,
                TablePrinter::Num(us, 3)});
      const std::string ds = "n=" + std::to_string(n) + ",sort=" + sort_name;
      log.Add("kernel_backend", ds, "scalar_us_per_solve", us);
    }
  }
  t.Print(std::cout);

  std::cout << "\nelementwise stages only (arc build + breakpoints + "
               "writeback, no sort/sweep):\n";
  TablePrinter ts({"market n", "us/pass"});
  for (std::size_t n : {120u, 1000u, 10000u}) {
    std::size_t reps = std::max<std::size_t>(50, 400000 / n);
    if (opts.quick) reps = std::max<std::size_t>(10, reps / 10);
    const double us = TimeStagesUs(n, reps);
    ts.AddRow({TablePrinter::Int(static_cast<long>(n)),
               TablePrinter::Num(us, 3)});
    const std::string ds = "n=" + std::to_string(n) + ",stages=elementwise";
    log.Add("kernel_backend", ds, "scalar_us_per_pass", us);
  }
  ts.Print(std::cout);
}

// ---------------------------------------------------------------------------
// Churned-order repair: the chi-square second sweep. With gamma = 1/x0 a row
// market's first solve clears against mu = 0, where every breakpoint
// -(x0 + mu*q)/q ties at -2, so the stored order is plain arc order and says
// nothing about the second solve's mu. That repair overruns its budget and
// hands over to the cold sort. Timed next to the cold sort alone and two
// repairs that complete (an already sorted order, and one with every block
// of 12 reversed, 66 inversions a block), which price one insertion shift. The
// break-even is how many shifts per arc a repair may take before the cold
// sort is cheaper; the budget (n * bit_width(n) shifts) should stay below it
// (docs/KERNELS.md, "The hand-over budget").

// Mean us per solve over reps solves, each repairing a fresh copy of
// *stored (a cold sort when stored is null).
double TimeSolveUs(BreakpointWorkspace& ws, double u, const MarketOrder* stored,
                   std::size_t reps, BreakpointResult* last) {
  MarketOrder order;
  Stopwatch sw;
  for (std::size_t r = 0; r < reps; ++r) {
    if (stored != nullptr) order.perm = stored->perm;
    *last = SolveMarket(ws, u, 0.0, stored != nullptr ? &order : nullptr);
    benchmark::DoNotOptimize(last);
  }
  return sw.Seconds() * 1e6 / static_cast<double>(reps);
}

void RunChurnedRepair(const bench::BenchOptions& opts, ExperimentLog& log) {
  std::cout << "\nchurned-order repair (chi-square second sweep, "
               "solve only):\n";
  TablePrinter t({"market n", "cold (us)", "hand-over (us)", "repair (us)",
                  "drift repair (us)", "break-even shifts/arc",
                  "budget shifts/arc"});
  const std::size_t rounds = opts.quick ? 3 : 9;
  for (std::size_t n : {205u, 485u, 1000u}) {
    std::size_t reps = std::max<std::size_t>(20, 4000000 / (n * 16));
    if (opts.quick) reps = std::max<std::size_t>(5, reps / 10);
    Rng rng(19);
    std::vector<double> x0(n), weights(n), zero(n, 0.0);
    double u = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      x0[j] = rng.Uniform(1.0, 100.0);
      weights[j] = 1.0 / x0[j];
      u += x0[j];
    }
    std::vector<double> slopes(n);
    ArcSlopes(weights, slopes);
    const std::vector<double> mu = rng.UniformVector(n, -1.0, 1.0);
    BreakpointWorkspace ws;
    ws.Resize(n);
    MarketOrder first, sorted;
    BuildArcs(x0, slopes, zero, ws.p(), ws.q());
    (void)SolveMarket(ws, u, 0.0, &first);  // all tied: arc order
    BuildArcs(x0, slopes, mu, ws.p(), ws.q());
    (void)SolveMarket(ws, u, 0.0, &sorted);
    MarketOrder drifted = sorted;
    for (std::size_t k = 0; k + 12 <= n; k += 12)
      std::reverse(drifted.perm.begin() + k, drifted.perm.begin() + k + 12);

    // Minimum over interleaved rounds, so scheduler drift hits every arm.
    const MarketOrder* arms[4] = {nullptr, &first, &sorted, &drifted};
    double us[4];
    std::fill(us, us + 4, std::numeric_limits<double>::infinity());
    BreakpointResult res;
    for (std::size_t round = 0; round < rounds; ++round)
      for (int arm = 0; arm < 4; ++arm)
        us[arm] = std::min(us[arm], TimeSolveUs(ws, u, arms[arm], reps, &res));
    const double cold = us[0], handover = us[1], repair = us[2], drift = us[3];
    const double shifts = static_cast<double>(res.ops.inversions);  // drift
    const double us_per_shift = std::max(drift - repair, 1e-9) / shifts;
    const double breakeven =
        (cold - repair) / us_per_shift / static_cast<double>(n);
    const double budget = static_cast<double>(std::bit_width(n));
    t.AddRow({TablePrinter::Int(static_cast<long>(n)),
              TablePrinter::Num(cold, 3), TablePrinter::Num(handover, 3),
              TablePrinter::Num(repair, 3), TablePrinter::Num(drift, 3),
              TablePrinter::Num(breakeven, 1), TablePrinter::Num(budget, 0)});
    const std::string ds = "n=" + std::to_string(n) + ",chi2";
    log.Add("churned_repair", ds, "cold_us", cold);
    log.Add("churned_repair", ds, "handover_us", handover);
    log.Add("churned_repair", ds, "repair_us", repair);
    log.Add("churned_repair", ds, "drift_repair_us", drift);
    log.Add("churned_repair", ds, "breakeven_shifts_per_arc", breakeven,
            std::nullopt,
            "shifts per arc at which a completed repair costs a cold sort");
  }
  t.Print(std::cout);
}

// ---------------------------------------------------------------------------
// The first sweep of a cold start (docs/KERNELS.md, "The zero sweep"): a
// chi-square row sweep against mu = 0 on a table with ~45% structural
// zeros, where each row's breakpoints sit within a few ulps of -2 or 0.
// Without a sort cache every market cold-sorts; with a fresh one (as a
// solve's first sweep meets it) each market is seeded with its exact order
// from its offsets and the repair moves nothing.

double TimeFirstSweepUs(const DenseMatrix& x0, const DenseMatrix& slopes,
                        const MarketSide& side, bool cache, std::size_t reps) {
  const std::size_t m = x0.rows();
  const Vector zero(x0.cols(), 0.0);
  Vector lambda(m);
  std::vector<SweepSlot> scratch(1);
  SortOrderCache orders;
  SweepOptions opts;
  opts.scratch = scratch;
  opts.sort_cache = cache ? &orders : nullptr;
  double seconds = 0.0;
  for (std::size_t r = 0; r <= reps; ++r) {  // the first sweep warms up
    orders.Reset(m);
    Stopwatch sw;
    EquilibrateSide(x0, slopes, zero, side, lambda, nullptr, opts);
    if (r > 0) seconds += sw.Seconds();
  }
  return seconds * 1e6 / static_cast<double>(reps);
}

void RunFirstSweep(const bench::BenchOptions& opts, ExperimentLog& log) {
  std::cout << "\nfirst sweep (chi-square row sweep against mu = 0):\n";
  TablePrinter t({"m x n", "cold sort (us)", "offset seed (us)", "ratio"});
  const std::size_t rounds = opts.quick ? 3 : 7;
  for (std::size_t n : {205u, 1000u}) {
    std::size_t reps = std::max<std::size_t>(3, 2000000 / (n * n));
    if (opts.quick) reps = std::max<std::size_t>(2, reps / 4);
    Rng rng(29);
    DenseMatrix x0(n, n, 0.0);
    for (double& v : x0.Flat())
      if (rng.Bernoulli(0.55)) v = rng.Uniform(1.0, 100.0);
    const DenseMatrix slopes = ArcSlopes(datasets::ChiSquareWeights(x0));
    Vector s0 = x0.RowSums();
    for (double& v : s0) v = 1.2 * v + 1.0;
    MarketSide side;
    side.mode = TotalsMode::kFixed;
    side.t0 = s0;
    // Minimum over interleaved rounds, so scheduler drift hits both arms.
    double us[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
    for (std::size_t round = 0; round < rounds; ++round)
      for (int arm = 0; arm < 2; ++arm)
        us[arm] = std::min(us[arm],
                           TimeFirstSweepUs(x0, slopes, side, arm == 1, reps));
    const std::string size = std::to_string(n) + "x" + std::to_string(n);
    t.AddRow({size, TablePrinter::Num(us[0], 1), TablePrinter::Num(us[1], 1),
              TablePrinter::Num(us[0] / us[1], 2)});
    const std::string ds = "n=" + std::to_string(n) + ",chi2,mu=0";
    log.Add("first_sweep", ds + ",cache=off", "us_per_sweep", us[0]);
    log.Add("first_sweep", ds + ",cache=on", "us_per_sweep", us[1]);
  }
  t.Print(std::cout);
}

// ---------------------------------------------------------------------------
// Pool dispatch and the SP120 sweep (docs/PARALLELISM.md, "The next Amdahl
// term"). An SP120 solve runs about 1000 regions, each around 100 us of
// market work on two workers, so a region's fixed cost shows directly:
// BM_PoolRegion prices an empty 120-index region on a 2-thread pool (one
// publish, claim and join), BM_Sp120Sweep one converged SP120 row sweep at
// 1/2/4 threads.

// An SP120 instance and its duals, solved to the Table 5 tolerance.
struct Sp120 {
  DiagonalProblem problem;
  Vector lambda, mu;
};

const Sp120& ConvergedSp120() {
  static const Sp120 sp = [] {
    Rng rng(120);
    Sp120 s;
    s.problem = spe::Generate(120, 120, rng).ToDiagonalProblem();
    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;
    o.check_every = 2;
    const auto run = SolveDiagonal(s.problem, o);
    s.lambda = run.solution.lambda;
    s.mu = run.solution.mu;
    return s;
  }();
  return sp;
}

// Mean us per empty region over reps regions, best of three.
double TimePoolRegionUs(ThreadPool& pool, std::size_t reps) {
  const auto empty = [](std::size_t, std::size_t) {};
  pool.ParallelFor(120, empty);  // warm-up: workers started and spinning
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) pool.ParallelFor(120, empty);
    best = std::min(best, sw.Seconds() * 1e6 / static_cast<double>(reps));
  }
  return best;
}

// One SP120 row sweep at the converged duals on `threads` workers, with
// slopes, persisted orders and per-worker scratch as a solve keeps them.
class Sp120Sweep {
 public:
  explicit Sp120Sweep(std::size_t threads)
      : sp_(ConvergedSp120()),
        slopes_(ArcSlopes(sp_.problem.gamma())),
        pool_(threads),
        scratch_(threads),
        lambda_(sp_.lambda) {
    rows_.mode = sp_.problem.mode();
    rows_.t0 = sp_.problem.s0();
    rows_.weight = sp_.problem.alpha();
    orders_.Reset(sp_.problem.m());
    opts_.pool = &pool_;
    opts_.scratch = scratch_;
    opts_.sort_cache = &orders_;
    Run();  // establishes the orders, sizes the scratch
  }
  void Run() {
    EquilibrateSide(sp_.problem.x0(), slopes_, sp_.mu, rows_, lambda_,
                    nullptr, opts_);
  }

 private:
  const Sp120& sp_;
  const DenseMatrix slopes_;
  ThreadPool pool_;
  std::vector<SweepSlot> scratch_;
  Vector lambda_;
  MarketSide rows_;
  SortOrderCache orders_;
  SweepOptions opts_;
};

// The duals of an SP120 Table 5 solve stopped after `iterations`.
Sp120 Sp120After(std::size_t iterations) {
  Sp120 s{ConvergedSp120().problem, {}, {}};
  SeaOptions o;
  o.epsilon = 0.01;
  o.criterion = StopCriterion::kXChange;
  o.check_every = 2;
  o.max_iterations = iterations;
  const auto run = SolveDiagonal(s.problem, o);
  s.lambda = run.solution.lambda;
  s.mu = run.solution.mu;
  return s;
}

// One SP120 row sweep of a cold start on `threads` workers, from the orders
// its previous row sweep left: the first (against mu = 0, no orders yet)
// or iteration 3's (against iteration 2's mu, from the orders stored
// against iteration 1's). Each timed sweep starts from a copy of those
// orders; the copy is not timed.
class Sp120ColdStartSweep {
 public:
  Sp120ColdStartSweep(std::size_t threads, bool first)
      : sp_(ConvergedSp120()),
        slopes_(ArcSlopes(sp_.problem.gamma())),
        pool_(threads),
        scratch_(threads),
        lambda_(sp_.problem.m()) {
    rows_.mode = sp_.problem.mode();
    rows_.t0 = sp_.problem.s0();
    rows_.weight = sp_.problem.alpha();
    opts_.pool = &pool_;
    opts_.scratch = scratch_;
    base_.Reset(sp_.problem.m());
    if (first) {
      mu_ = Vector(sp_.problem.n(), 0.0);
    } else {
      opts_.sort_cache = &base_;
      EquilibrateSide(sp_.problem.x0(), slopes_, Sp120After(1).mu, rows_,
                      lambda_, nullptr, opts_);
      mu_ = Sp120After(2).mu;
    }
  }
  double RunSeconds() {
    SortOrderCache orders = base_;
    opts_.sort_cache = &orders;
    Stopwatch sw;
    EquilibrateSide(sp_.problem.x0(), slopes_, mu_, rows_, lambda_, nullptr,
                    opts_);
    return sw.Seconds();
  }

 private:
  const Sp120& sp_;
  const DenseMatrix slopes_;
  ThreadPool pool_;
  std::vector<SweepSlot> scratch_;
  Vector lambda_, mu_;
  MarketSide rows_;
  SortOrderCache base_;
  SweepOptions opts_;
};

void RunPoolAndSweep(const bench::BenchOptions& opts, ExperimentLog& log) {
  std::cout << "\npool dispatch and the converged SP120 row sweep:\n";
  TablePrinter t({"case", "threads", "us"});
  const std::size_t reps = opts.quick ? 200 : 2000;
  ThreadPool pool(2);
  const double region = TimePoolRegionUs(pool, reps * 5);
  t.AddRow({"empty region (n=120)", "2", TablePrinter::Num(region, 3)});
  log.Add("pool_region", "n=120,threads=2", "us_per_region", region);
  for (std::size_t threads : {1u, 2u, 4u}) {
    Sp120Sweep sweep(threads);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch sw;
      for (std::size_t r = 0; r < reps; ++r) sweep.Run();
      best = std::min(best, sw.Seconds() * 1e6 / static_cast<double>(reps));
    }
    t.AddRow({"SP120 row sweep", TablePrinter::Int(static_cast<long>(threads)),
              TablePrinter::Num(best, 3)});
    log.Add("sp120_sweep", "threads=" + std::to_string(threads),
            "us_per_sweep", best);
  }
  // A cold start's first sweep and a mid-solve one, whose orders churn
  // (most of their markets clear on the prefix, docs/KERNELS.md).
  for (const bool first : {true, false}) {
    for (std::size_t threads : {1u, 2u}) {
      Sp120ColdStartSweep sweep(threads, first);
      double best = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        double seconds = 0.0;
        for (std::size_t r = 0; r < reps; ++r) seconds += sweep.RunSeconds();
        best = std::min(best, seconds * 1e6 / static_cast<double>(reps));
      }
      const char* which = first ? "first" : "mid";
      t.AddRow({std::string("SP120 row sweep, ") +
                    (first ? "cold start's first" : "iteration 3"),
                TablePrinter::Int(static_cast<long>(threads)),
                TablePrinter::Num(best, 3)});
      log.Add("sp120_sweep",
              "threads=" + std::to_string(threads) + ",sweep=" + which,
              "us_per_sweep", best);
    }
  }
  t.Print(std::cout);
}

// One converged SP120 row market at a time (about 8 of its 120 arcs
// active), cycling through the rows: arc build + solve + writeback with no
// stored order, so each clears on the prefix.
void RunSp120Market(const bench::BenchOptions& opts, ExperimentLog& log) {
  const Sp120& sp = ConvergedSp120();
  const DenseMatrix slopes = ArcSlopes(sp.problem.gamma());
  const std::size_t m = sp.problem.m(), n = sp.problem.n();
  MarketSide rows;
  rows.mode = sp.problem.mode();
  rows.t0 = sp.problem.s0();
  rows.weight = sp.problem.alpha();
  BreakpointWorkspace ws;
  std::vector<double> x(n);
  const std::size_t reps = (opts.quick ? 20 : 200) * m;
  double best = std::numeric_limits<double>::infinity();
  std::size_t active = 0, prefix = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) {
      const std::size_t i = r % m;
      double u = 0.0, v = 0.0;
      ClearingTarget(rows, i, u, v);
      ws.Resize(n);
      BuildArcs(sp.problem.x0().Row(i), slopes.Row(i), sp.mu, ws.p(), ws.q());
      const auto res = SolveMarket(ws, u, v);
      Writeback(ws.p(), ws.q(), res.lambda, x);
      benchmark::DoNotOptimize(x.data());
      if (rep == 0 && r < m) {
        active += res.active_count;
        prefix += res.prefix;
      }
    }
    best = std::min(best, sw.Seconds() * 1e6 / static_cast<double>(reps));
  }
  std::cout << "\nconverged SP120 row market, no stored order ("
            << TablePrinter::Num(static_cast<double>(active) / m, 1)
            << " of " << n << " arcs active, " << prefix << " of " << m
            << " cleared on the prefix): " << TablePrinter::Num(best, 3)
            << " us/solve\n";
  log.Add("kernel_backend", "n=120,sort=prefix", "scalar_us_per_solve", best);
}

// ---------------------------------------------------------------------------
// Attribution overhead: full SolveDiagonal on a table1-style dense instance
// with per-market attribution off vs on. The disabled path is a single
// pointer test per sweep, so the "on" column upper-bounds it; the trajectory
// record lets bench_diff flag any PR that makes forensics stop being
// pay-for-what-you-use (the <2% wall-clock claim in OBSERVABILITY.md).
// Rounds are interleaved off/on so scheduler drift hits both arms equally.

void RunAttributionOverhead(const bench::BenchOptions& opts,
                            ExperimentLog& log) {
  std::cout << "\nattribution overhead (full solve, table1-style dense):\n";
  TablePrinter t({"m x n", "off (ms)", "on (ms)", "on/off"});
  const std::size_t rounds = opts.quick ? 9 : 25;
  for (std::size_t n : {96u, 160u}) {
    if (opts.quick && n > 96u) continue;
    Rng rng(11);
    const auto p = datasets::MakeLargeDiagonal(n, n, rng);
    SeaOptions base;
    base.epsilon = 1e-8;
    obs::MarketAttribution attr;
    const auto solve_ms = [&](bool enabled) {
      SeaOptions o = base;
      o.attribution = enabled ? &attr : nullptr;
      Stopwatch sw;
      const auto res = SolveDiagonal(p, o);
      benchmark::DoNotOptimize(&res);
      return sw.Seconds() * 1e3;
    };
    // Warm-ups fault pages and settle the allocator before timing.
    (void)solve_ms(false);
    (void)solve_ms(true);
    double off = std::numeric_limits<double>::infinity();
    double on = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < rounds; ++r) {
      off = std::min(off, solve_ms(false));
      on = std::min(on, solve_ms(true));
    }
    const double ratio = off > 0.0 ? on / off : 0.0;
    const std::string dim =
        std::to_string(n) + " x " + std::to_string(n);
    t.AddRow({dim, TablePrinter::Num(off, 3), TablePrinter::Num(on, 3),
              TablePrinter::Num(ratio, 4)});
    const std::string ds = "n=" + std::to_string(n) + ",dense";
    log.Add("attribution_overhead", ds, "solve_off_ms", off);
    log.Add("attribution_overhead", ds, "solve_on_ms", on);
    log.Add("attribution_overhead", ds, "overhead_ratio", ratio, std::nullopt,
            "on/off, min over interleaved rounds; disabled path is one "
            "branch per sweep");
  }
  t.Print(std::cout);
}

// ---------------------------------------------------------------------------
// The serve request path's hashing (docs/SERVING.md, "What a request
// costs"): the CRC-32 over a 12x12 request frame (serve_mix's shape), both
// warm-cache keys from their one pass, and the reply's x_fingerprint over
// the 12x12 primal. Each is a mean over fixed reps, best of three rounds.

template <class Fn>
double TimeCallUs(Fn fn, std::size_t reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 3; ++round) {
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) benchmark::DoNotOptimize(fn());
    best = std::min(best, sw.Seconds() * 1e6 / static_cast<double>(reps));
  }
  return best;
}

void RunRequestPath(const bench::BenchOptions& opts, ExperimentLog& log) {
  std::cout << "\nrequest path hashing (12x12 fixed request):\n";
  constexpr std::size_t kSide = 12;
  Rng rng(12);
  DenseMatrix x0(kSide, kSide), gamma(kSide, kSide);
  for (double& v : x0.Flat()) v = rng.Uniform(1.0, 10.0);
  for (double& v : gamma.Flat()) v = rng.Uniform(0.5, 2.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.1;
  for (double& v : d0) v *= 1.1;
  serve::SolveRequest req;
  req.problem = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
  const std::string frame = serve::EncodeRequestFrame(req);
  const std::size_t reps = opts.quick ? 2000 : 20000;
  const double crc =
      TimeCallUs([&] { return support::Crc32(frame); }, reps);
  const double keys =
      TimeCallUs([&] { return FingerprintProblemKeys(req.problem); }, reps);
  const double x_print =
      TimeCallUs([&] { return serve::FingerprintPrimal(x0); }, reps);
  TablePrinter t({"pass", "bytes", "us"});
  const auto bytes = [](std::size_t n) {
    return TablePrinter::Int(static_cast<long>(n));
  };
  t.AddRow({"frame CRC-32", bytes(frame.size()), TablePrinter::Num(crc, 3)});
  t.AddRow({"both cache keys", bytes(2 * kSide * kSide * sizeof(double)),
            TablePrinter::Num(keys, 3)});
  t.AddRow({"x_fingerprint", bytes(kSide * kSide * sizeof(double)),
            TablePrinter::Num(x_print, 3)});
  t.Print(std::cout);
  const std::string ds = "12x12,fixed";
  log.Add("request_path", ds, "crc32_us", crc);
  log.Add("request_path", ds, "problem_keys_us", keys);
  log.Add("request_path", ds, "x_fingerprint_us", x_print);
}

// ---------------------------------------------------------------------------
// Part 2: google-benchmark suite (opt-in via --benchmark* flags).

void BM_MarketSolveHeapsort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<Arc> arcs;
  BreakpointWorkspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    FillArcs(arcs, n, rng);
    ws.Assign(arcs);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        SolveMarket(ws, 100.0, 0.0, ColdSort::kHeapsort));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_MarketSolveHeapsort)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity(benchmark::oNLogN);

// The solver's own cold sort: straight insertion up to kInsertionThreshold
// arcs, the radix sort above.
void BM_MarketSolveCold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<Arc> arcs;
  BreakpointWorkspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    FillArcs(arcs, n, rng);
    ws.Assign(arcs);
    state.ResumeTiming();
    benchmark::DoNotOptimize(SolveMarket(ws, 100.0, 0.0));
  }
}
BENCHMARK(BM_MarketSolveCold)->RangeMultiplier(4)->Range(64, 4096);

void BM_MarketSolveInsertion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<Arc> arcs;
  BreakpointWorkspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    FillArcs(arcs, n, rng);
    ws.Assign(arcs);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        SolveMarket(ws, 100.0, 0.0, ColdSort::kInsertion));
  }
}
BENCHMARK(BM_MarketSolveInsertion)->DenseRange(16, 128, 28);

void BM_RowSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  DenseMatrix centers(n, n), weights(n, n);
  for (double& v : centers.Flat()) v = rng.Uniform(0.1, 100.0);
  for (double& v : weights.Flat()) v = rng.Uniform(0.01, 1.0);
  const DenseMatrix slopes = ArcSlopes(weights);
  Vector mu(n, 0.0), mult(n);
  Vector s0 = centers.RowSums();
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;
  std::vector<SweepSlot> scratch(1);
  SweepOptions opts;
  opts.scratch = scratch;
  for (auto _ : state) {
    EquilibrateSide(centers, slopes, mu, side, mult, nullptr, opts);
    benchmark::DoNotOptimize(mult.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RowSweep)->Arg(128)->Arg(512)->Arg(1024);

void BM_PoolRegion(benchmark::State& state) {
  ThreadPool pool(2);
  for (auto _ : state) pool.ParallelFor(120, [](std::size_t, std::size_t) {});
}
BENCHMARK(BM_PoolRegion);

void BM_Sp120Sweep(benchmark::State& state) {
  Sp120Sweep sweep(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sweep.Run();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Sp120Sweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_DenseGemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  DenseMatrix a(n, n);
  for (double& v : a.Flat()) v = rng.Uniform(-1.0, 1.0);
  Vector x = rng.UniformVector(n, -1.0, 1.0), y(n);
  for (auto _ : state) {
    Gemv(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) *
                          static_cast<int64_t>(n) * 8);
}
BENCHMARK(BM_DenseGemv)->Arg(512)->Arg(2304)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  // Split the command line: --benchmark* flags go to google-benchmark, the
  // rest to the shared bench harness (which rejects flags it doesn't know).
  std::vector<char*> bench_args{argv[0]};
  std::vector<char*> gbench_args{argv[0]};
  bool run_gbench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      gbench_args.push_back(argv[i]);
      run_gbench = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_args.size());
  const auto opts = sea::bench::ParseArgs(bench_argc, bench_args.data());

  sea::bench::PrintHeader(
      "micro_kernels: market kernel timings",
      "full market pipeline (arc build + clearing solve + writeback), "
      "single thread, best of three means over fixed reps");
  sea::ExperimentLog log;
  RunMarketKernel(opts, log);
  RunChurnedRepair(opts, log);
  RunFirstSweep(opts, log);
  RunPoolAndSweep(opts, log);
  RunSp120Market(opts, log);
  RunAttributionOverhead(opts, log);
  RunRequestPath(opts, log);
  sea::bench::Finish(log, opts, "micro_kernels");

  if (run_gbench) {
    int gbench_argc = static_cast<int>(gbench_args.size());
    benchmark::Initialize(&gbench_argc, gbench_args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
