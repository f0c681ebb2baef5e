// Regenerates paper Table 2: SEA on (synthetic stand-ins for) the United
// States input/output matrix datasets with known row and column totals.
//
// Protocol (Section 4.1.2): IOC72*/IOC77* are 205x205 at 52%/58% density,
// IO72* are 485x485 at 16%; protocols a (10% growth), b (100% growth),
// c (average of 10 additively perturbed instances). Chi-square weights, so
// the sweeps seed their breakpoint orders from one shared multiplier order
// (docs/KERNELS.md, "One order per sweep"). Exits 1 when a run does not
// converge.
#include <iostream>

#include "bench_common.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/io_tables.hpp"
#include "io/table_printer.hpp"
#include "problems/feasibility.hpp"

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 2: SEA on input/output table datasets (synthetic stand-ins)",
      "205x205 @52/58% and 485x485 @16% density, growth protocols a/b/c, "
      "gamma = 1/x0, eps = .01");

  const double paper_cpu[] = {18.6697, 18.9923, 25.6035, 13.6168, 19.1338,
                              30.2037, 333.2691, 438.3519, 335.6124};

  auto specs = datasets::Table2Specs();
  if (opts.quick)
    for (auto& s : specs) s.size = s.size / 4;

  TablePrinter table({"dataset", "CPU time (s)", "paper CPU (s)", "iters",
                      "max rel residual"});
  ExperimentLog log;
  bool ok = true;

  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto& spec = specs[k];
    double total_cpu = 0.0;
    double worst_resid = 0.0;
    std::size_t iters = 0;
    bool all_converged = true;
    for (std::size_t rep = 0; rep < spec.replications; ++rep) {
      const auto problem = datasets::MakeIoTable(spec, rep);
      SeaOptions sea_opts;
      sea_opts.epsilon = 0.01;
      sea_opts.criterion = StopCriterion::kXChange;
      bench::MaybeAttachProgress(opts, sea_opts,
                                 spec.name + " rep " + std::to_string(rep));
      const auto run = SolveDiagonal(problem, sea_opts);
      total_cpu += run.result.cpu_seconds;
      iters += run.result.iterations;
      all_converged = all_converged && run.result.converged();
      worst_resid = std::max(worst_resid,
                             CheckFeasibility(problem, run.solution).MaxRel());
    }
    ok = ok && all_converged;
    // Protocol 'c' reports the average over its replications (as the paper
    // "consisted of the average of 10 examples").
    const double cpu = total_cpu / double(spec.replications);

    table.AddRow({spec.name, TablePrinter::Num(cpu),
                  TablePrinter::Num(paper_cpu[k]),
                  TablePrinter::Int(long(iters)),
                  TablePrinter::Num(worst_resid, 6)});
    log.Add("table2", spec.name, "cpu_seconds", cpu, paper_cpu[k],
            all_converged ? "converged" : "NOT CONVERGED");
    log.Add("table2", spec.name, "iterations", static_cast<double>(iters));
    log.Add("table2", spec.name, "max_rel_residual", worst_resid);
  }

  table.Print(std::cout);
  bench::Finish(log, opts, "table2");
  return ok ? 0 : 1;  // a non-converged run fails the bench
}
