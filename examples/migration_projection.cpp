// Projecting migration flows (the paper's Table 4 and Table 8 application).
//
// Given a base state-to-state migration table and growth estimates for each
// origin's out-migration and each destination's in-migration, project the
// flow matrix. The totals are estimates, not facts, so the elastic regime is
// used: SEA trades off matching the totals against staying near the base
// flows. We then repeat the projection with a dense weighting matrix G
// (expert covariance information) via the general algorithm.
#include <iostream>

#include "core/diagonal_sea.hpp"
#include "core/general_sea.hpp"
#include "datasets/migration.hpp"
#include "io/table_printer.hpp"
#include "problems/feasibility.hpp"

int main() {
  using namespace sea;

  const auto specs = datasets::Table4Specs();
  const auto problem = datasets::MakeMigration(specs[0]);  // MIG5560a

  SeaOptions opts;
  opts.epsilon = 1e-5;
  opts.criterion = StopCriterion::kResidualRel;
  const auto run = SolveDiagonal(problem, opts);

  std::cout << "diagonal projection (" << specs[0].name
            << "): converged=" << std::boolalpha << run.result.converged()
            << " iterations=" << run.result.iterations << '\n';

  // The elastic regime treats the growth targets as estimates: the projected
  // totals track them closely without being forced to match exactly.
  const Vector base_out = datasets::MakeMigrationBase(5560).RowSums();
  double worst_gap = 0.0;
  for (std::size_t i = 0; i < datasets::kStates; ++i)
    worst_gap = std::max(worst_gap,
                         std::abs(run.solution.s[i] - problem.s0()[i]) /
                             std::max(1.0, problem.s0()[i]));
  std::cout << "worst relative gap between projected total and growth "
               "target: "
            << TablePrinter::Num(100.0 * worst_gap, 2) << "%\n";

  TablePrinter table({"state", "base out-migration", "growth target",
                      "projected"});
  for (std::size_t i = 0; i < 6; ++i)
    table.AddRow({"S" + std::to_string(i + 1),
                  TablePrinter::Num(base_out[i], 0),
                  TablePrinter::Num(problem.s0()[i], 0),
                  TablePrinter::Num(run.solution.s[i], 0)});
  table.Print(std::cout);

  // General (dense G) projection, as in Table 8.
  std::cout << "\ngeneral projection with dense 2304x2304 G (Table 8 "
               "protocol)...\n";
  const auto gen_problem =
      datasets::MakeGeneralMigration(datasets::Table8Specs()[0]);
  GeneralSeaOptions gen_opts;
  gen_opts.outer_epsilon = 1e-3;
  gen_opts.inner.criterion = StopCriterion::kResidualRel;
  const auto gen_run = SolveGeneral(gen_problem, gen_opts);
  const auto rep = CheckFeasibility(gen_run.solution.x, gen_problem.s0(),
                                    gen_problem.d0());
  std::cout << "general SEA: converged=" << gen_run.result.converged()
            << " outer=" << gen_run.result.outer_iterations
            << " inner=" << gen_run.result.total_inner_iterations
            << " max-rel-residual=" << rep.MaxRel() << '\n';
  return run.result.converged() && gen_run.result.converged() ? 0 : 1;
}
