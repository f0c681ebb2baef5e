// Ablation studies for SEA's design choices (DESIGN.md Section 8):
//
//   1. cold sort      — straight insertion vs heapsort per market length,
//                       the paper's own implementation switch (HEAPSORT for
//                       long arrays, STRAIGHT INSERTION for 10..120), next
//                       to the solver's radix sort above the threshold.
//                       Solvers cold-sort only a market's first sweep.
//   2. warm start     — chaining inner diagonal solves from the previous
//                       outer iteration's multipliers vs cold mu = 0.
//   3. check spacing  — convergence verification every k-th iteration (the
//                       paper checks every other iteration for the elastic
//                       runs to shrink the serial phase).
//   4. inner tolerance— projection subproblem accuracy vs outer iterations.
//   5. sparse storage — pattern-aware solve vs dense solve with stiff
//                       zero-cell weights at I/O-table densities.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/diagonal_sea.hpp"
#include "core/general_sea.hpp"
#include "datasets/general_dense.hpp"
#include "datasets/io_tables.hpp"
#include "datasets/large_diagonal.hpp"
#include "datasets/weights.hpp"
#include "equilibration/breakpoint_solver.hpp"
#include "io/table_printer.hpp"
#include "sparse/sparse_sea.hpp"
#include "spe/spe_generator.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace sea;

void AblateColdSort(bool quick) {
  std::cout << "\n--- Ablation 1: cold sort (per-market CPU by length) ---\n";
  TablePrinter t({"market length", "insertion (us)", "heapsort (us)",
                  "radix (us)", "winner"});
  for (std::size_t n : {16u, 32u, 64u, 128u, 129u, 192u, 256u, 1024u, 4096u}) {
    if (quick && n > 256) break;
    BreakpointWorkspace ws;
    std::vector<Arc> arcs(n);
    const std::size_t reps = 2000000 / (n + 64) + 1;
    // The solver's own cold sort is the radix sort only above the threshold.
    const bool radix = n > kInsertionThreshold;
    const auto solve = [&](int arm) {
      return arm == 0   ? SolveMarket(ws, 50.0, 0.0, ColdSort::kInsertion)
             : arm == 1 ? SolveMarket(ws, 50.0, 0.0, ColdSort::kHeapsort)
                        : SolveMarket(ws, 50.0, 0.0);
    };
    double us[3] = {0.0, 0.0, 0.0};
    for (int arm = 0; arm < (radix ? 3 : 2); ++arm) {
      Rng local(42);
      Stopwatch sw;
      for (std::size_t r = 0; r < reps; ++r) {
        for (auto& a : arcs)
          a = {local.Uniform(-100.0, 100.0), local.Uniform(0.01, 5.0)};
        ws.Assign(arcs);
        (void)solve(arm);
      }
      us[arm] = sw.Seconds() * 1e6 / double(reps);
    }
    const int best = static_cast<int>(
        std::min_element(us, us + (radix ? 3 : 2)) - us);
    t.AddRow({TablePrinter::Int(long(n)), TablePrinter::Num(us[0], 2),
              TablePrinter::Num(us[1], 2),
              radix ? TablePrinter::Num(us[2], 2) : std::string("-"),
              best == 0 ? "insertion" : best == 1 ? "heapsort" : "radix"});
  }
  t.Print(std::cout);
  std::cout << "(the library's cold-sort threshold is "
            << kInsertionThreshold << ": insertion at or below it, radix "
               "above; later sweeps repair the persisted order instead)\n";
}

void AblateWarmStart(bool quick) {
  std::cout << "\n--- Ablation 2: warm-starting inner solves (general SEA) "
               "---\n";
  const std::size_t size = quick ? 10 : 30;
  Rng rng(2);
  const auto p = datasets::MakeGeneralDense(size, size, rng);

  TablePrinter t({"inner start", "outer iters", "total inner iters",
                  "CPU (s)"});
  for (bool warm : {true, false}) {
    // Emulate cold starts by solving with a fresh solver each outer step:
    // run the library path (warm) vs a manual cold loop.
    GeneralSeaOptions o;
    o.outer_epsilon = 1e-5;
    o.inner.criterion = StopCriterion::kResidualRel;
    if (warm) {
      const auto run = SolveGeneral(p, o);
      t.AddRow({"warm (library)",
                TablePrinter::Int(long(run.result.outer_iterations)),
                TablePrinter::Int(long(run.result.total_inner_iterations)),
                TablePrinter::Num(run.result.cpu_seconds)});
    } else {
      // Manual projection loop with cold inner starts.
      Vector x, s, d;
      FeasibleStart(p, x, s, d);
      SeaOptions inner = o.inner;
      inner.epsilon = o.outer_epsilon / 10.0;
      std::size_t outer = 0, inner_total = 0;
      const double cpu0 = ProcessCpuSeconds();
      for (std::size_t it = 1; it <= 500; ++it) {
        const auto diag = p.Diagonalize(x, s, d);
        const auto run = SolveDiagonal(diag, inner);  // cold mu = 0
        inner_total += run.result.iterations;
        double change = 0.0;
        const auto xf = run.solution.x.Flat();
        for (std::size_t k = 0; k < xf.size(); ++k)
          change = std::max(change, std::abs(xf[k] - x[k]));
        x.assign(xf.begin(), xf.end());
        s = run.solution.s;
        d = run.solution.d;
        outer = it;
        if (change <= o.outer_epsilon) break;
      }
      t.AddRow({"cold (mu = 0)", TablePrinter::Int(long(outer)),
                TablePrinter::Int(long(inner_total)),
                TablePrinter::Num(ProcessCpuSeconds() - cpu0)});
    }
  }
  t.Print(std::cout);
}

void AblateCheckSpacing(bool quick) {
  std::cout << "\n--- Ablation 3: convergence-check spacing (elastic SPE) "
               "---\n";
  const std::size_t size = quick ? 40 : 150;
  Rng rng(3);
  const auto diag = spe::Generate(size, size, rng).ToDiagonalProblem();

  TablePrinter t({"check every", "iterations", "check share of wall",
                  "CPU (s)"});
  for (std::size_t k : {1u, 2u, 5u, 10u}) {
    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;
    o.check_every = k;
    const auto run = SolveDiagonal(diag, o);
    const double frac =
        run.result.check_phase_seconds / run.result.wall_seconds;
    t.AddRow({TablePrinter::Int(long(k)),
              TablePrinter::Int(long(run.result.iterations)),
              TablePrinter::Num(100.0 * frac, 2) + "%",
              TablePrinter::Num(run.result.cpu_seconds)});
  }
  t.Print(std::cout);
}

void AblateInnerTolerance(bool quick) {
  std::cout << "\n--- Ablation 4: projection inner tolerance (general SEA) "
               "---\n";
  const std::size_t size = quick ? 10 : 30;
  Rng rng(4);
  const auto p = datasets::MakeGeneralDense(size, size, rng);

  TablePrinter t({"inner epsilon", "outer iters", "total inner iters",
                  "CPU (s)", "objective"});
  for (double eps : {1e-2, 1e-4, 1e-6, 1e-8}) {
    GeneralSeaOptions o;
    o.outer_epsilon = 1e-5;
    o.inner_epsilon = eps;
    o.inner.criterion = StopCriterion::kResidualRel;
    const auto run = SolveGeneral(p, o);
    t.AddRow({TablePrinter::Num(eps, 8),
              TablePrinter::Int(long(run.result.outer_iterations)),
              TablePrinter::Int(long(run.result.total_inner_iterations)),
              TablePrinter::Num(run.result.cpu_seconds),
              TablePrinter::Num(run.result.objective, 2)});
  }
  t.Print(std::cout);
}

void AblateSparseStorage(bool quick) {
  std::cout << "\n--- Ablation 5: sparse pattern vs dense stiff-zero solve "
               "---\n";
  TablePrinter t({"density", "dense CPU (s)", "sparse CPU (s)",
                  "dense/sparse", "nnz"});
  for (double density : {0.16, 0.52, 1.0}) {
    const std::size_t n = quick ? 100 : 485;
    Rng rng(5);
    DenseMatrix x0(n, n, 0.0);
    for (double& v : x0.Flat())
      if (rng.Bernoulli(density)) v = rng.Uniform(0.1, 10000.0);
    for (std::size_t i = 0; i < n; ++i)
      if (x0(i, i) == 0.0) x0(i, i) = 1.0;  // keep the pattern connected
    Vector s0 = x0.RowSums(), d0 = x0.ColSums();

    SeaOptions o;
    o.epsilon = 0.01;
    o.criterion = StopCriterion::kXChange;

    const auto dense_p = DiagonalProblem::MakeFixed(
        x0, datasets::ChiSquareWeights(x0), s0, d0);
    const auto dense_run = SolveDiagonal(dense_p, o);

    const auto spat = SparseMatrix::FromDense(x0);
    DenseMatrix gamma(n, n, 0.0);
    for (std::size_t k = 0; k < x0.size(); ++k)
      if (x0.Flat()[k] > 0.0) gamma.Flat()[k] = 1.0 / x0.Flat()[k];
    const auto sparse_p = SparseDiagonalProblem::MakeFixed(
        spat, SparseMatrix::FromDense(gamma), s0, d0);
    const auto sparse_run = SolveSparse(sparse_p, o);

    t.AddRow({TablePrinter::Num(density, 2),
              TablePrinter::Num(dense_run.result.cpu_seconds),
              TablePrinter::Num(sparse_run.result.cpu_seconds),
              TablePrinter::Num(dense_run.result.cpu_seconds /
                                    std::max(1e-9,
                                             sparse_run.result.cpu_seconds),
                                2),
              TablePrinter::Int(long(spat.nnz()))});
  }
  t.Print(std::cout);
  std::cout << "(note: the two solves answer slightly different questions — "
               "stiff zero weights vs excluded structural zeros)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = sea::bench::ParseArgs(argc, argv);
  sea::bench::PrintHeader("Ablations: SEA design choices",
                          "cold sort, warm starts, check spacing, inner "
                          "tolerance, sparse storage");
  AblateColdSort(opts.quick);
  AblateWarmStart(opts.quick);
  AblateCheckSpacing(opts.quick);
  AblateInnerTolerance(opts.quick);
  AblateSparseStorage(opts.quick);
  std::cout.flush();
  return 0;
}
