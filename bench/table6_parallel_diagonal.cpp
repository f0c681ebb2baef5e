// Regenerates paper Table 6 and Figure 5: parallel speedup and efficiency of
// SEA on diagonal problems (examples IO72b, 1000x1000, SP500x500, SP750x750;
// N = 2, 4, 6 processors).
//
// SUBSTITUTION (DESIGN.md Section 5): the paper measured wall-clock speedups
// standalone on a 6-way IBM 3090-600E. This host may have fewer cores, so
// speedups here come from the deterministic schedule simulator driven by the
// solver's recorded execution trace: exact per-market operation counts for
// the parallel row/column phases plus the measured serial convergence-
// verification phases — precisely the cost structure the paper's own
// Section 4.2 analysis uses to explain its efficiency numbers. The paper
// heapsorted every market on every sweep; the counts here are a cold first
// sweep + order repair (docs/PARALLELISM.md, "Sort reuse"), so the parallel
// phases weigh less against the serial check than in the paper. Real
// thread-pool wall times are printed alongside for the host's core count.
#include <iostream>

#include "bench_common.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/io_tables.hpp"
#include "datasets/large_diagonal.hpp"
#include "io/table_printer.hpp"
#include "parallel/speedup_model.hpp"
#include "parallel/thread_pool.hpp"
#include "spe/spe_generator.hpp"
#include "support/rng.hpp"

namespace {

struct PaperRow {
  std::size_t n_procs;
  double speedup;
  double efficiency_pct;
};

struct Example {
  std::string name;
  sea::DiagonalProblem problem;
  sea::SeaOptions opts;
  std::vector<PaperRow> paper;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 6 / Figure 5: parallel speedup and efficiency, diagonal SEA",
      "speedups from the operation-count schedule simulator (see DESIGN.md "
      "Section 5; sorts counted as cold first sweep + order repair); "
      "serial phase = convergence verification");

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
    o.record_trace = true;
    examples.push_back({"IO72b", datasets::MakeIoTable(spec, 0), o,
                        {{2, 1.93, 96.5}, {4, 3.74, 93.5}, {6, 5.15, 85.8}}});
  }
  {
    Rng rng(0x7AB1E001 + diag_size);
    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;
    o.record_trace = true;
    examples.push_back(
        {std::to_string(diag_size) + " x " + std::to_string(diag_size),
         datasets::MakeLargeDiagonal(diag_size, diag_size, rng), o,
         {{2, 1.93, 96.5}, {4, 3.57, 89.4}, {6, 4.71, 78.5}}});
  }
  for (auto [size, rows] : {std::pair<std::size_t, std::vector<PaperRow>>{
                                sp_small,
                                {{2, 1.86, 92.85},
                                 {4, 3.52, 88.10},
                                 {6, 4.66, 77.75}}},
                            std::pair<std::size_t, std::vector<PaperRow>>{
                                sp_large,
                                {{2, 1.87, 93.79},
                                 {4, 3.19, 79.80},
                                 {6, 3.86, 64.34}}}}) {
    Rng rng(0x5EA5 + size);
    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;
    o.check_every = 2;
    o.record_trace = true;
    examples.push_back(
        {"SP" + std::to_string(size) + " x " + std::to_string(size),
         spe::Generate(size, size, rng).ToDiagonalProblem(), o, rows});
  }

  TablePrinter table({"example", "N", "S_N (simulated)", "S_N (paper)",
                      "E_N (simulated)", "E_N (paper)"});
  ExperimentLog log;

  std::cout << "\nFigure 5 series (speedup vs processors):\n";
  for (auto& ex : examples) {
    const auto run = SolveDiagonal(ex.problem, ex.opts);
    if (!run.result.converged())
      std::cout << "WARNING: " << ex.name << " did not converge\n";

    // Schedule-simulator speedups (paper processor counts).
    ScheduleOptions sched;
    const auto speedups =
        ComputeSpeedups(run.result.trace, {1, 2, 4, 6}, sched);

    std::cout << "  " << ex.name << ": ";
    for (const auto& s : speedups) {
      std::cout << "S(" << s.n_processors << ")="
                << TablePrinter::Num(s.speedup, 2) << " ";
    }
    std::cout << " [iterations: " << run.result.iterations << "]\n";

    for (const auto& paper_row : ex.paper) {
      const SpeedupRow* sim = nullptr;
      for (const auto& s : speedups)
        if (s.n_processors == paper_row.n_procs) sim = &s;
      if (sim == nullptr) continue;
      table.AddRow({ex.name, TablePrinter::Int(long(paper_row.n_procs)),
                    TablePrinter::Num(sim->speedup, 2),
                    TablePrinter::Num(paper_row.speedup, 2),
                    TablePrinter::Num(100.0 * sim->efficiency, 2) + "%",
                    TablePrinter::Num(paper_row.efficiency_pct, 2) + "%"});
      log.Add("table6", ex.name,
              "speedup_p" + std::to_string(paper_row.n_procs), sim->speedup,
              paper_row.speedup, "simulated schedule");
    }

    // Real thread-pool wall time at the host's concurrency under the one
    // sweep schedule (docs/PARALLELISM.md).
    const std::size_t hw = std::thread::hardware_concurrency();
    if (hw >= 2) {
      ThreadPool pool(hw);
      SeaOptions par = ex.opts;
      par.record_trace = false;
      par.pool = &pool;
      const auto par_run = SolveDiagonal(ex.problem, par);
      std::cout << "    real wall time 1 thread: "
                << TablePrinter::Num(run.result.wall_seconds, 3) << "s; " << hw
                << " threads: "
                << TablePrinter::Num(par_run.result.wall_seconds, 3) << "s\n";
      log.Add("table6", ex.name, "wall_seconds_t" + std::to_string(hw),
              par_run.result.wall_seconds, std::nullopt,
              "host-concurrency wall time");
      log.Add("table6", ex.name, "order_reuses",
              static_cast<double>(par_run.result.order_reuses), std::nullopt,
              "markets solved by order repair");
    }
  }

  std::cout << '\n';
  table.Print(std::cout);
  bench::Finish(log, opts, "table6");
  return 0;
}
