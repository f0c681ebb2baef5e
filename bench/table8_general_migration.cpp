// Regenerates paper Table 8: SEA on general constrained matrix problems
// built from US migration tables with 100% dense G (dimension 2304x2304).
//
// Protocol (Section 5.1.2): 48x48 synthetic migration tables (see
// datasets/migration.hpp for the substitution note), fixed totals grown by
// 0-10% factors; protocol 'b' additionally perturbs the entries; dense
// strictly-diagonally-dominant G generated as in Section 5.1.1;
// eps' = .001.
#include <iostream>

#include "bench_common.hpp"
#include "core/general_sea.hpp"
#include "datasets/migration.hpp"
#include "io/table_printer.hpp"
#include "problems/feasibility.hpp"

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 8: SEA on general migration problems, dense G = 2304 x 2304",
      "48x48 gravity-model tables, fixed grown totals, dense dominant G, "
      "eps' = .001");

  const double paper_cpu[] = {23.16, 22.99, 23.57, 23.28, 28.73, 23.49};

  auto specs = datasets::Table8Specs();
  if (opts.quick) specs.resize(2);

  TablePrinter table({"dataset", "CPU time (s)", "paper CPU (s)",
                      "outer iters", "inner iters", "max rel residual"});
  ExperimentLog log;

  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto problem = datasets::MakeGeneralMigration(specs[k]);

    GeneralSeaOptions sea_opts;
    sea_opts.outer_epsilon = 1e-3;
    sea_opts.inner.criterion = StopCriterion::kResidualRel;
    const auto run = SolveGeneral(problem, sea_opts);

    const auto rep =
        CheckFeasibility(run.solution.x, problem.s0(), problem.d0());
    table.AddRow({specs[k].name, TablePrinter::Num(run.result.cpu_seconds),
                  TablePrinter::Num(paper_cpu[k]),
                  TablePrinter::Int(long(run.result.outer_iterations)),
                  TablePrinter::Int(long(run.result.total_inner_iterations)),
                  TablePrinter::Num(rep.MaxRel(), 6)});
    log.Add("table8", specs[k].name, "cpu_seconds", run.result.cpu_seconds,
            paper_cpu[k],
            run.result.converged() ? "converged" : "NOT CONVERGED");
    log.Add("table8", specs[k].name, "outer_iterations",
            static_cast<double>(run.result.outer_iterations));
    log.Add("table8", specs[k].name, "total_inner_iterations",
            static_cast<double>(run.result.total_inner_iterations));
  }

  table.Print(std::cout);
  bench::Finish(log, opts, "table8");
  return 0;
}
