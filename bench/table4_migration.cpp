// Regenerates paper Table 4: SEA on (synthetic stand-ins for) United States
// state-to-state migration tables with estimated row and column totals.
//
// Protocol (Section 4.1.2): 48x48 tables (Alaska, Hawaii, DC removed);
// three periods x protocols a (0-10% total growth), b (0-100%),
// c (perturbed entries); all weights equal to one; elastic regime.
#include <iostream>

#include "bench_common.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/migration.hpp"
#include "io/table_printer.hpp"
#include "problems/feasibility.hpp"

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 4: SEA on US migration tables (synthetic gravity-model tables)",
      "48x48, elastic totals, unit weights, protocols a/b/c per period, "
      "eps = .001 (relative)");

  const double paper_cpu[] = {1.5935, 4.1367, 0.8932, 1.2915, 3.9714,
                              0.8203, 3.5168, 9.1067, 0.8041};

  const auto specs = datasets::Table4Specs();
  TablePrinter table({"dataset", "CPU time (s)", "paper CPU (s)", "iters",
                      "max rel residual"});
  ExperimentLog log;

  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto problem = datasets::MakeMigration(specs[k]);
    SeaOptions sea_opts;
    sea_opts.epsilon = 1e-3;
    sea_opts.criterion = StopCriterion::kResidualRel;
    sea_opts.check_every = opts.quick ? 1 : 2;  // paper: every other iter
    const auto run = SolveDiagonal(problem, sea_opts);

    const auto rep = CheckFeasibility(problem, run.solution);
    table.AddRow({specs[k].name, TablePrinter::Num(run.result.cpu_seconds),
                  TablePrinter::Num(paper_cpu[k]),
                  TablePrinter::Int(long(run.result.iterations)),
                  TablePrinter::Num(rep.MaxRel(), 6)});
    log.Add("table4", specs[k].name, "cpu_seconds", run.result.cpu_seconds,
            paper_cpu[k],
            run.result.converged() ? "converged" : "NOT CONVERGED");
    log.Add("table4", specs[k].name, "iterations",
            static_cast<double>(run.result.iterations));
    log.Add("table4", specs[k].name, "final_residual",
            run.result.final_residual);
  }

  table.Print(std::cout);
  bench::Finish(log, opts, "table4");
  return 0;
}
