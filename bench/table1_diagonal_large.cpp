// Regenerates paper Table 1: SEA on large-scale diagonal quadratic
// constrained matrix problems with fixed row and column totals.
//
// Protocol (Section 4.1.1): m = n in {750, 1000, 2000, 3000}; 100% dense
// X0 uniform [.1, 10000]; gamma = 1/x0; s0 = 2*rowsums, d0 = 2*colsums;
// HEAPSORT exact equilibration; epsilon = .01 on |x^t - x^{t-1}|. Here each
// market's first sweep cold-sorts (the radix sort above kInsertionThreshold)
// and every later sweep repairs that order (docs/PARALLELISM.md, "Sort
// reuse"). The totals are twice the margins, so each side's multipliers are
// equal up to rounding and no order is seeded from them (docs/KERNELS.md,
// "One order per sweep"). Exits 1 when a run does not converge.
#include <iostream>

#include "bench_common.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/large_diagonal.hpp"
#include "io/table_printer.hpp"
#include "problems/feasibility.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 1: SEA on large-scale diagonal problems (fixed totals)",
      "100% dense, x0 ~ U[.1, 10000], gamma = 1/x0, totals = 2x base sums, "
      "eps = .01 (x-change)");

  struct Row {
    std::size_t n;
    double paper_cpu;
  };
  const std::vector<Row> rows = opts.quick
                                    ? std::vector<Row>{{100, 0}, {200, 0}}
                                    : std::vector<Row>{{750, 204.7476},
                                                       {1000, 483.2065},
                                                       {2000, 3823.2139},
                                                       {3000, 13561.5703}};

  TablePrinter table({"m x n", "# nonzero variables", "CPU time (s)",
                      "paper CPU (s)", "iters", "max rel residual"});
  ExperimentLog log;
  bool ok = true;

  for (const auto& row : rows) {
    Rng rng(0x7AB1E001 + row.n);
    const auto problem = datasets::MakeLargeDiagonal(row.n, row.n, rng);

    SeaOptions sea_opts;
    sea_opts.epsilon = 0.01;
    sea_opts.criterion = StopCriterion::kXChange;
    const std::string dims =
        std::to_string(row.n) + " x " + std::to_string(row.n);
    bench::MaybeAttachProgress(opts, sea_opts, "table1 " + dims);
    const auto run = SolveDiagonal(problem, sea_opts);

    ok = ok && run.result.converged();

    const auto rep = CheckFeasibility(problem, run.solution);
    table.AddRow({dims, TablePrinter::Int(long(row.n) * long(row.n)),
                  TablePrinter::Num(run.result.cpu_seconds),
                  row.paper_cpu > 0 ? TablePrinter::Num(row.paper_cpu) : "-",
                  TablePrinter::Int(long(run.result.iterations)),
                  TablePrinter::Num(rep.MaxRel(), 6)});
    log.Add("table1", dims, "cpu_seconds", run.result.cpu_seconds,
            row.paper_cpu > 0 ? std::optional<double>(row.paper_cpu)
                              : std::nullopt,
            run.result.converged() ? "converged" : "NOT CONVERGED");
    // The same doubles the printed table is formatted from, so the JSON
    // record is bit-identical to the table row.
    log.Add("table1", dims, "iterations",
            static_cast<double>(run.result.iterations));
    log.Add("table1", dims, "final_residual", run.result.final_residual);
    log.Add("table1", dims, "max_rel_residual", rep.MaxRel());
  }

  table.Print(std::cout);
  bench::Finish(log, opts, "table1");
  return ok ? 0 : 1;  // a non-converged run fails the bench
}
