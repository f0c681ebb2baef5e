// Regenerates paper Table 7: computational comparison of SEA, RC and B-K on
// general quadratic constrained matrix problems with 100% dense G.
//
// Protocol (Section 5.1.1): X0 sizes 10..120 (G of dimension 100..14400);
// G symmetric strictly diagonally dominant with diagonal in [500, 800] and
// mixed-sign off-diagonals; linear coefficients uniform [100, 1000];
// epsilon' = .001 for all three algorithms; STRAIGHT INSERTION sort (arrays
// of 10..120 elements). B-K runs only up to G = 900x900, exactly as in the
// paper ("it became prohibitively expensive").
#include <iostream>

#include "bench_common.hpp"
#include "baselines/bachem_korte.hpp"
#include "baselines/rc_algorithm.hpp"
#include "core/general_sea.hpp"
#include "datasets/general_dense.hpp"
#include "io/table_printer.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace sea;
  const auto opts = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 7: SEA vs RC vs B-K on general problems with 100% dense G",
      "G diag [500,800], strictly diagonally dominant, mixed-sign "
      "off-diagonals; linear terms U[100,1000]; eps' = .001");

  struct Row {
    std::size_t x_size;     // X0 is x_size x x_size
    std::size_t runs;       // paper averaged over several runs at small sizes
    double paper_sea, paper_rc, paper_bk;  // <0: not run in the paper
  };
  const std::vector<Row> rows =
      opts.quick ? std::vector<Row>{{10, 2, 0.0194, 0.1270, 0.7725},
                                    {20, 1, 0.5694, 1.8373, 78.9557}}
                 : std::vector<Row>{{10, 10, 0.0194, 0.1270, 0.7725},
                                    {20, 10, 0.5694, 1.8373, 78.9557},
                                    {30, 2, 2.9767, 9.5129, 1458.3820},
                                    {50, 1, 21.4607, 71.4807, -1},
                                    {70, 1, 81.2640, 428.8780, -1},
                                    {100, 1, 353.6885, 1305.5940, -1},
                                    {120, 1, 1254.731, 3000.5200, -1}};

  TablePrinter table({"dim of G", "# runs", "SEA (s)", "RC (s)", "B-K (s)",
                      "paper SEA", "paper RC", "paper B-K"});
  ExperimentLog log;

  for (const auto& row : rows) {
    const std::size_t mn = row.x_size * row.x_size;
    double sea_cpu = 0.0, rc_cpu = 0.0, bk_cpu = 0.0;
    bool run_bk = mn <= 900;
    bool all_ok = true;

    for (std::size_t r = 0; r < row.runs; ++r) {
      Rng rng(0x7AB1E007 + row.x_size * 131 + r);
      const auto problem =
          datasets::MakeGeneralDense(row.x_size, row.x_size, rng);

      GeneralSeaOptions sea_opts;
      sea_opts.outer_epsilon = 1e-3;
      sea_opts.inner.criterion = StopCriterion::kResidualRel;
      const auto sea_run = SolveGeneral(problem, sea_opts);
      sea_cpu += sea_run.result.cpu_seconds;
      all_ok = all_ok && sea_run.result.converged();

      RcOptions rc_opts;
      rc_opts.epsilon = 1e-3;
      const auto rc_run = SolveRc(problem, rc_opts);
      rc_cpu += rc_run.result.cpu_seconds;
      all_ok = all_ok && rc_run.result.converged;

      if (run_bk) {
        BachemKorteOptions bk_opts;
        bk_opts.epsilon = 1e-3;
        const auto bk_run = SolveBachemKorte(problem, bk_opts);
        bk_cpu += bk_run.result.cpu_seconds;
        all_ok = all_ok && bk_run.result.converged;
      }
    }
    const double denom = static_cast<double>(row.runs);
    sea_cpu /= denom;
    rc_cpu /= denom;
    bk_cpu /= denom;

    const std::string dim =
        std::to_string(mn) + " x " + std::to_string(mn);
    table.AddRow(
        {dim, TablePrinter::Int(long(row.runs)), TablePrinter::Num(sea_cpu),
         TablePrinter::Num(rc_cpu), run_bk ? TablePrinter::Num(bk_cpu) : "-",
         TablePrinter::Num(row.paper_sea), TablePrinter::Num(row.paper_rc),
         row.paper_bk > 0 ? TablePrinter::Num(row.paper_bk) : "-"});
    log.Add("table7", dim, "sea_cpu_seconds", sea_cpu, row.paper_sea,
            all_ok ? "converged" : "NOT CONVERGED");
    log.Add("table7", dim, "rc_cpu_seconds", rc_cpu, row.paper_rc);
    if (run_bk && row.paper_bk > 0)
      log.Add("table7", dim, "bk_cpu_seconds", bk_cpu, row.paper_bk);
    log.Add("table7", dim, "rc_over_sea", rc_cpu / sea_cpu,
            row.paper_rc / row.paper_sea, "speed ratio");
    if (run_bk && row.paper_bk > 0)
      log.Add("table7", dim, "bk_over_sea", bk_cpu / sea_cpu,
              row.paper_bk / row.paper_sea, "speed ratio");
  }

  table.Print(std::cout);
  bench::Finish(log, opts, "table7");
  return 0;
}
