// Regenerates paper Table 3: SEA on social accounting matrix estimation
// problems (synthetic stand-ins), where the row and column totals must
// balance and are estimated along with the transactions.
//
// Protocol (Section 4.1.2): STONE/TURK/SRI tiny sparse SAMs, USDA82E 133
// accounts fully dense, S500/S750/S1000 large random SAMs; eps = .001
// (relative row residual).
#include <iostream>

#include "bench_common.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/sam_datasets.hpp"
#include "io/table_printer.hpp"
#include "problems/feasibility.hpp"

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 3: SEA on social accounting matrix datasets (synthetic)",
      "balanced-base SAMs with perturbed transactions; totals estimated "
      "(SAM regime), eps = .001 (relative)");

  const double paper_cpu[] = {0.0024, 0.0210, 0.009, 5.7598,
                              28.99,  52.60,  95.08};

  auto specs = datasets::Table3Specs();
  if (opts.quick) {
    // Keep the tiny classics; shrink the large random SAMs.
    specs[3].accounts = 40;
    specs[4].accounts = 60;
    specs[5].accounts = 80;
    specs[6].accounts = 100;
  }

  TablePrinter table({"dataset", "# accounts", "# transactions",
                      "CPU time (s)", "paper CPU (s)", "iters",
                      "max rel residual"});
  ExperimentLog log;

  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto& spec = specs[k];
    const auto problem = datasets::MakeSam(spec);

    SeaOptions sea_opts;
    sea_opts.epsilon = 1e-3;
    sea_opts.criterion = StopCriterion::kResidualRel;
    const auto run = SolveDiagonal(problem, sea_opts);

    std::size_t nnz = 0;
    for (double v : problem.x0().Flat())
      if (v > 0.0) ++nnz;

    const auto rep = CheckFeasibility(problem, run.solution);
    table.AddRow({spec.name, TablePrinter::Int(long(spec.accounts)),
                  TablePrinter::Int(long(nnz)),
                  TablePrinter::Num(run.result.cpu_seconds),
                  TablePrinter::Num(paper_cpu[k]),
                  TablePrinter::Int(long(run.result.iterations)),
                  TablePrinter::Num(rep.MaxRel(), 6)});
    log.Add("table3", spec.name, "cpu_seconds", run.result.cpu_seconds,
            paper_cpu[k],
            run.result.converged() ? "converged" : "NOT CONVERGED");
    log.Add("table3", spec.name, "iterations",
            static_cast<double>(run.result.iterations));
    log.Add("table3", spec.name, "final_residual", run.result.final_residual);
  }

  table.Print(std::cout);
  bench::Finish(log, opts, "table3");
  return 0;
}
