// Regenerates paper Table 9 and Figure 7: parallel speedup and efficiency of
// SEA versus RC on the general 10000x10000 dense-G problem (X0 = 100x100).
//
// Both algorithms are solved serially and on a ThreadPool(N) for N = 2 and
// 4 (capped at the host's threads); S_N and E_N are medians of three timed
// solves after a warm-up (bench::MeasureScaling), and a run that fails to
// converge or does other work than the serial run fails the bench. The
// pool splits the dense G matvecs (linearization and final objective) by
// rows and the market sweeps by markets; the convergence verifications run
// serially. The paper's structural argument is counted from the results:
// SEA verifies once per outer iteration, while RC verifies projection
// convergence after every projection iteration inside both phases, plus
// once per outer iteration — so RC carries more serial synchronization
// points and scales worse (Figure 7). Both algorithms' market sorts are a
// cold first sweep + order repair (docs/PARALLELISM.md, "Sort reuse").
#include <iostream>
#include <numeric>

#include "bench_common.hpp"
#include "baselines/rc_algorithm.hpp"
#include "core/general_sea.hpp"
#include "datasets/general_dense.hpp"
#include "io/table_printer.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 9 / Figure 7: parallel SEA vs RC, general 10000 x 10000 G",
      "measured wall-clock speedups on the thread pool: median of 3 "
      "solves per thread count after a warm-up");

  const std::size_t x_size = opts.quick ? 20 : 100;
  Rng rng(0x7AB1E009 + x_size);
  const auto problem = datasets::MakeGeneralDense(x_size, x_size, rng);

  GeneralSeaOptions sea_opts;
  sea_opts.outer_epsilon = 1e-3;
  sea_opts.inner.criterion = StopCriterion::kResidualRel;
  RcOptions rc_opts;
  rc_opts.epsilon = 1e-3;

  auto solve_sea = [&](ThreadPool* pool) {
    GeneralSeaOptions o = sea_opts;
    o.inner.pool = pool;
    return SolveGeneral(problem, o);
  };
  auto solve_rc = [&](ThreadPool* pool) {
    RcOptions o = rc_opts;
    o.pool = pool;
    return SolveRc(problem, o);
  };

  // Serial synchronization points (the paper's structural argument).
  const auto sea_run = solve_sea(nullptr);
  const auto rc_run = solve_rc(nullptr);
  const auto& proj = rc_run.result.projection_iterations_per_phase;
  const std::size_t sea_checks = sea_run.result.outer_iterations;
  const std::size_t rc_checks =
      std::accumulate(proj.begin(), proj.end(), std::size_t{0}) +
      rc_run.result.outer_iterations;
  std::cout << "SEA: outer iterations = " << sea_run.result.outer_iterations
            << ", inner iterations = "
            << sea_run.result.total_inner_iterations
            << (sea_run.result.converged() ? "" : " (NOT CONVERGED)") << '\n'
            << "RC:  outer iterations = " << rc_run.result.outer_iterations
            << ", projection iterations per phase = [";
  for (std::size_t it : proj) std::cout << ' ' << it;
  std::cout << " ]" << (rc_run.result.converged ? "" : " (NOT CONVERGED)")
            << "\n\nSerial convergence verifications (the paper's structural "
               "argument):\n"
            << "  SEA: " << sea_checks << " (one per outer iteration)\n"
            << "  RC:  " << rc_checks
            << " (one per projection iteration, plus one per outer "
               "iteration)\n";

  TablePrinter table({"algorithm", "N", "T_N (s)", "S_N", "S_N (paper)", "E_N",
                      "E_N (paper)"});
  ExperimentLog log;
  log.Add("table9", "SEA", "serial_verifications", double(sea_checks));
  log.Add("table9", "RC", "serial_verifications", double(rc_checks));

  bool ok = bench::MeasureScaling(
      "table9", "SEA", {{2, 1.82, 90.77}, {4, 2.62, 65.49}},
      [&](ThreadPool* pool) {
        const auto run = solve_sea(pool);
        const auto x = run.solution.x.Flat();
        return bench::ScalingRun{run.result.wall_seconds,
                                 run.result.converged(),
                                 {run.result.outer_iterations,
                                  run.result.total_inner_iterations},
                                 {x.begin(), x.end()}};
      },
      table, log);
  ok &= bench::MeasureScaling(
      "table9", "RC", {{2, 1.75, 87.7}, {4, 2.24, 55.9}},
      [&](ThreadPool* pool) {
        const auto run = solve_rc(pool);
        const auto x = run.solution.x.Flat();
        std::vector<std::size_t> iterations = {run.result.outer_iterations};
        iterations.insert(iterations.end(),
                          run.result.projection_iterations_per_phase.begin(),
                          run.result.projection_iterations_per_phase.end());
        return bench::ScalingRun{run.result.wall_seconds,
                                 run.result.converged, std::move(iterations),
                                 {x.begin(), x.end()}};
      },
      table, log);

  std::cout << '\n';
  table.Print(std::cout);
  bench::Finish(log, opts, "table9");
  return ok ? 0 : 1;
}
