// Regenerates paper Table 6 and Figure 5: parallel speedup and efficiency of
// SEA on diagonal problems (examples IO72b, 1000x1000, SP500x500, SP750x750;
// N = 2, 4, 6 processors).
//
// The paper measured wall-clock speedups standalone on a 6-way IBM
// 3090-600E. Here each example is solved serially and on a ThreadPool(N)
// for every paper processor count the host has threads for; S_N and E_N are
// medians of three timed solves after a warm-up (bench::MeasureScaling). A
// run that fails to converge, or that does other work than the serial run
// (iteration count or solution bits), fails the bench with exit code 1.
// The paper heapsorted every market on every sweep; here each market's
// first sweep cold-sorts and later sweeps repair the stored order
// (docs/PARALLELISM.md, "Sort reuse"), so the parallel sweeps weigh less
// against the serial check than in the paper.
#include <iostream>

#include "bench_common.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/io_tables.hpp"
#include "datasets/large_diagonal.hpp"
#include "io/table_printer.hpp"
#include "spe/spe_generator.hpp"
#include "support/rng.hpp"

namespace {

struct Example {
  std::string name;
  sea::DiagonalProblem problem;
  sea::SeaOptions opts;
  std::vector<sea::bench::PaperPoint> paper;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 6 / Figure 5: parallel speedup and efficiency, diagonal SEA",
      "measured wall-clock speedups on the thread pool: median of 3 "
      "solves per thread count after a warm-up");

  const std::size_t io_size = opts.quick ? 60 : 485;
  const std::size_t diag_size = opts.quick ? 100 : 1000;
  const std::size_t sp_small = opts.quick ? 50 : 500;
  const std::size_t sp_large = opts.quick ? 80 : 750;

  std::vector<Example> examples;
  {
    datasets::IoTableSpec spec = datasets::Table2Specs()[7];  // IO72b
    spec.size = io_size;
    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;
    examples.push_back({"IO72b", datasets::MakeIoTable(spec, 0), o,
                        {{2, 1.93, 96.5}, {4, 3.74, 93.5}, {6, 5.15, 85.8}}});
  }
  {
    Rng rng(0x7AB1E001 + diag_size);
    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;
    examples.push_back(
        {std::to_string(diag_size) + " x " + std::to_string(diag_size),
         datasets::MakeLargeDiagonal(diag_size, diag_size, rng), o,
         {{2, 1.93, 96.5}, {4, 3.57, 89.4}, {6, 4.71, 78.5}}});
  }
  using SpSeries = std::pair<std::size_t, std::vector<bench::PaperPoint>>;
  for (auto [size, rows] :
       {SpSeries{sp_small,
                 {{2, 1.86, 92.85}, {4, 3.52, 88.10}, {6, 4.66, 77.75}}},
        SpSeries{sp_large,
                 {{2, 1.87, 93.79}, {4, 3.19, 79.80}, {6, 3.86, 64.34}}}}) {
    Rng rng(0x5EA5 + size);
    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;
    o.check_every = 2;
    examples.push_back(
        {"SP" + std::to_string(size) + " x " + std::to_string(size),
         spe::Generate(size, size, rng).ToDiagonalProblem(), o, rows});
  }

  TablePrinter table({"example", "N", "T_N (s)", "S_N", "S_N (paper)", "E_N",
                      "E_N (paper)"});
  ExperimentLog log;
  bool ok = true;
  for (auto& ex : examples) {
    ok &= bench::MeasureScaling(
        "table6", ex.name, ex.paper,
        [&ex](ThreadPool* pool) {
          SeaOptions o = ex.opts;
          o.pool = pool;
          const auto run = SolveDiagonal(ex.problem, o);
          const auto x = run.solution.x.Flat();
          return bench::ScalingRun{run.result.wall_seconds,
                                   run.result.converged(),
                                   {run.result.iterations},
                                   {x.begin(), x.end()}};
        },
        table, log);
  }

  std::cout << '\n';
  table.Print(std::cout);
  bench::Finish(log, opts, "table6");
  return ok ? 0 : 1;
}
