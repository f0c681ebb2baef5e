// Regenerates paper Table 5: SEA on classical spatial price equilibrium
// problems (isomorphic to constrained matrix problems with unknown totals).
//
// Protocol (Section 4.1.2): separable linear supply price, demand price and
// transportation cost functions; sizes SP50x50 ... SP750x750; eps = .01.
// Exits 1 when a run does not converge or leaves an SPE violation above
// kSpeTolerance price units (perfbench's spe_elastic tolerance).
#include <iostream>

#include "bench_common.hpp"
#include "core/diagonal_sea.hpp"
#include "io/table_printer.hpp"
#include "spe/spe_generator.hpp"
#include "support/rng.hpp"

constexpr double kSpeTolerance = 5.0;

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 5: SEA on spatial price equilibrium problems",
      "linear separable supply/demand/transport functions, elastic regime, "
      "eps = .01, convergence checked every other iteration");

  struct Row {
    std::size_t size;
    double paper_cpu;
  };
  const std::vector<Row> rows =
      opts.quick ? std::vector<Row>{{25, 0}, {50, 1.3822}}
                 : std::vector<Row>{{50, 1.3822},
                                    {100, 11.2621},
                                    {250, 129.4597},
                                    {500, 540.7056},
                                    {750, 1589.0613}};

  TablePrinter table({"m x n", "# variables", "CPU time (s)", "paper CPU (s)",
                      "iters", "max equilibrium violation"});
  ExperimentLog log;
  bool ok = true;

  for (const auto& row : rows) {
    Rng rng(0x5EA5 + row.size);
    const auto spe_problem = spe::Generate(row.size, row.size, rng);
    const auto diag = spe_problem.ToDiagonalProblem();

    SeaOptions sea_opts;
    sea_opts.epsilon = 0.01;
    sea_opts.criterion = StopCriterion::kXChange;
    sea_opts.check_every = 2;  // paper Section 4.2
    const auto run = SolveDiagonal(diag, sea_opts);

    const auto eq = spe::CheckEquilibrium(spe_problem, run.solution.x);
    ok = ok && run.result.converged() && eq.Max() <= kSpeTolerance;
    const std::string name = "SP" + std::to_string(row.size) + " x " +
                             std::to_string(row.size);
    table.AddRow({name, TablePrinter::Int(long(row.size) * long(row.size)),
                  TablePrinter::Num(run.result.cpu_seconds),
                  row.paper_cpu > 0 ? TablePrinter::Num(row.paper_cpu) : "-",
                  TablePrinter::Int(long(run.result.iterations)),
                  TablePrinter::Num(eq.Max(), 6)});
    log.Add("table5", name, "cpu_seconds", run.result.cpu_seconds,
            row.paper_cpu > 0 ? std::optional<double>(row.paper_cpu)
                              : std::nullopt,
            run.result.converged() ? "converged" : "NOT CONVERGED");
    log.Add("table5", name, "iterations",
            static_cast<double>(run.result.iterations));
    log.Add("table5", name, "final_residual", run.result.final_residual);

    // The paper heapsorts every market on every sweep; here a market with
    // few active arcs sorts only the keys its sweep reads, and any other
    // cold-sorts its first sweep and repairs that order afterwards.
    std::cout << "  " << name
              << " comparisons (prefix clearings, sorts and repairs): "
              << run.result.ops.comparisons << ", "
              << run.result.order_reuses << " order reuses\n";
    log.Add("table5", name, "comparisons",
            static_cast<double>(run.result.ops.comparisons), std::nullopt,
            "prefix clearings, sorts and repairs");
    log.Add("table5", name, "order_reuses",
            static_cast<double>(run.result.order_reuses));
    // Anderson-extrapolated row sweeps the dual-ascent safeguard kept and
    // refused (core/extrapolation.hpp).
    std::cout << "  " << name << " extrapolations accepted / rejected: "
              << run.result.extrapolations_accepted << " / "
              << run.result.extrapolations_rejected << "\n";
    log.Add("table5", name, "extrapolations_accepted",
            static_cast<double>(run.result.extrapolations_accepted));
    log.Add("table5", name, "extrapolations_rejected",
            static_cast<double>(run.result.extrapolations_rejected));
  }

  table.Print(std::cout);
  bench::Finish(log, opts, "table5");
  // A non-converged run or an SPE violation past tolerance fails the bench.
  return ok ? 0 : 1;
}
