// Regenerates paper Table 9 and Figure 7: parallel speedup and efficiency of
// SEA versus RC on the general 10000x10000 dense-G problem (X0 = 100x100).
//
// SUBSTITUTION (DESIGN.md Section 5): speedups come from the deterministic
// schedule simulator over each algorithm's recorded execution trace. The
// structural difference the paper highlights is visible in the traces: RC
// verifies projection convergence serially inside *both* the row and the
// column phase of every outer iteration, while SEA verifies once per outer
// iteration — so RC carries more serial work and scales worse (Figure 7).
// Both algorithms' market sorts are counted as a cold first sweep + order
// repair (docs/PARALLELISM.md, "Sort reuse").
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "baselines/rc_algorithm.hpp"
#include "core/general_sea.hpp"
#include "datasets/general_dense.hpp"
#include "io/table_printer.hpp"
#include "parallel/speedup_model.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 9 / Figure 7: parallel SEA vs RC, general 10000 x 10000 G",
      "speedups from the operation-count schedule simulator (see DESIGN.md "
      "Section 5; sorts counted as cold first sweep + order repair)");

  const std::size_t x_size = opts.quick ? 20 : 100;
  Rng rng(0x7AB1E009 + x_size);
  const auto problem = datasets::MakeGeneralDense(x_size, x_size, rng);

  GeneralSeaOptions sea_opts;
  sea_opts.outer_epsilon = 1e-3;
  sea_opts.inner.criterion = StopCriterion::kResidualRel;
  sea_opts.inner.record_trace = true;
  const auto sea_run = SolveGeneral(problem, sea_opts);

  RcOptions rc_opts;
  rc_opts.epsilon = 1e-3;
  rc_opts.record_trace = true;
  const auto rc_run = SolveRc(problem, rc_opts);

  std::cout << "SEA: outer iterations = " << sea_run.result.outer_iterations
            << ", inner iterations = "
            << sea_run.result.total_inner_iterations
            << (sea_run.result.converged() ? "" : " (NOT CONVERGED)") << '\n'
            << "RC:  outer iterations = " << rc_run.result.outer_iterations
            << ", projection iterations per phase = [";
  for (std::size_t it : rc_run.result.projection_iterations_per_phase)
    std::cout << ' ' << it;
  std::cout << " ]" << (rc_run.result.converged ? "" : " (NOT CONVERGED)")
            << "\n\n";

  const struct {
    const char* algo;
    const ExecutionTrace& trace;
    double paper_s2, paper_e2, paper_s4, paper_e4;
  } algos[] = {
      {"SEA", sea_run.result.trace, 1.82, 90.77, 2.62, 65.49},
      {"RC", rc_run.result.trace, 1.75, 87.7, 2.24, 55.9},
  };

  // Trace structure: the paper attributes RC's weaker scaling to its extra
  // serial synchronization points (projection-method verification inside
  // both phases).
  std::cout << "Trace structure (the paper's structural argument):\n";
  for (const auto& a : algos)
    std::cout << "  " << a.algo << ": " << a.trace.SerialPhaseCount()
              << " serial synchronization phases, serial work fraction "
              << TablePrinter::Num(
                     100.0 * a.trace.SerialWork() / a.trace.TotalWork(), 3)
              << "%\n";

  // Machine-model calibration: two constants — V, the supervisor cost per
  // serial synchronization phase, and B, the memory-bandwidth parallelism
  // cap on the dense-G linearization phases — are fit by least squares to
  // the paper's four measured speedups. The fit residual reports how much
  // of the paper's Table 9 this two-parameter IBM 3090-600E model explains.
  auto simulate = [](const ExecutionTrace& tr, std::size_t p, double v,
                     double b) {
    ScheduleOptions so;
    so.serial_phase_overhead = v;
    so.bandwidth_cap = b;
    const double t1 = SimulateSchedule(tr, 1, so).makespan;
    const double tp = SimulateSchedule(tr, p, so).makespan;
    return t1 / tp;
  };

  const double work_scale = algos[0].trace.TotalWork();
  double best_v = 0.0, best_b = 6.0, best_err = 1e100;
  for (double b = 1.5; b <= 6.0; b += 0.05) {
    for (double vf = 0.0; vf <= 0.2001; vf += 0.002) {
      const double v = vf * work_scale;
      double err = 0.0;
      for (const auto& a : algos) {
        const double s2 = simulate(a.trace, 2, v, b);
        const double s4 = simulate(a.trace, 4, v, b);
        err += (s2 - a.paper_s2) * (s2 - a.paper_s2) +
               (s4 - a.paper_s4) * (s4 - a.paper_s4);
      }
      if (err < best_err) {
        best_err = err;
        best_v = v;
        best_b = b;
      }
    }
  }
  std::cout << "\ncalibrated machine model: V = "
            << TablePrinter::Num(best_v / work_scale, 3)
            << " x (SEA total work) per synchronization, B = "
            << TablePrinter::Num(best_b, 2)
            << " (bandwidth cap); rms residual = "
            << TablePrinter::Num(std::sqrt(best_err / 4.0), 3) << "\n\n";

  TablePrinter table({"algorithm", "N", "S_N (model)", "S_N (paper)",
                      "E_N (model)", "E_N (paper)"});
  ExperimentLog log;

  std::cout << "Figure 7 series (speedup vs processors):\n";
  for (const auto& a : algos) {
    std::cout << "  " << a.algo << ": ";
    for (std::size_t p : {1u, 2u, 4u, 6u})
      std::cout << "S(" << p << ")="
                << TablePrinter::Num(simulate(a.trace, p, best_v, best_b), 2)
                << ' ';
    std::cout << '\n';
    for (std::size_t p : {2u, 4u}) {
      const double s = simulate(a.trace, p, best_v, best_b);
      const double paper_s = p == 2 ? a.paper_s2 : a.paper_s4;
      const double paper_e = p == 2 ? a.paper_e2 : a.paper_e4;
      table.AddRow({a.algo, TablePrinter::Int(long(p)),
                    TablePrinter::Num(s, 2), TablePrinter::Num(paper_s, 2),
                    TablePrinter::Num(100.0 * s / double(p), 2) + "%",
                    TablePrinter::Num(paper_e, 2) + "%"});
      log.Add("table9", a.algo, "speedup_p" + std::to_string(p), s, paper_s,
              "calibrated schedule model");
    }
  }

  std::cout << '\n';
  table.Print(std::cout);
  bench::Finish(log, opts, "table9");
  return 0;
}
