// Public-API surface test: every header of the library, included together
// and in alphabetical order, must compile without relying on includes a
// previous user translation unit happened to pull in, and the one-line
// umbrella usage below must link. Guards against hidden include-order
// dependencies creeping into the public surface.
#include "baselines/bachem_korte.hpp"
#include "baselines/ras.hpp"
#include "baselines/rc_algorithm.hpp"
#include "baselines/reference_solvers.hpp"
#include "core/diagonal_sea.hpp"
#include "core/general_sea.hpp"
#include "core/iteration_engine.hpp"
#include "core/multiplier_rebalance.hpp"
#include "core/options.hpp"
#include "core/result.hpp"
#include "core/stopping.hpp"
#include "datasets/contingency.hpp"
#include "datasets/general_dense.hpp"
#include "datasets/io_tables.hpp"
#include "datasets/large_diagonal.hpp"
#include "datasets/migration.hpp"
#include "datasets/sam_datasets.hpp"
#include "datasets/weights.hpp"
#include "entropy/entropy_sea.hpp"
#include "equilibration/breakpoint_solver.hpp"
#include "equilibration/equilibrator.hpp"
#include "io/csv.hpp"
#include "io/experiment_record.hpp"
#include "io/table_printer.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/kernels.hpp"
#include "linalg/spd_generators.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/diagonal_problem.hpp"
#include "problems/feasibility.hpp"
#include "problems/general_problem.hpp"
#include "problems/layout.hpp"
#include "problems/solution.hpp"
#include "problems/types.hpp"
#include "sparse/feasibility_flow.hpp"
#include "sparse/sparse_matrix.hpp"
#include "sparse/sparse_problem.hpp"
#include "sparse/sparse_sea.hpp"
#include "spe/spatial_price.hpp"
#include "spe/spe_generator.hpp"
#include "support/byte_io.hpp"
#include "support/check.hpp"
#include "support/op_counter.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

#include <gtest/gtest.h>

namespace sea {
namespace {

TEST(PublicHeaders, UmbrellaUsageCompilesAndLinks) {
  // Touch one symbol per major module so the linker resolves them all
  // through the umbrella inclusion above.
  Rng rng(1);
  DenseMatrix x0(2, 2, 1.0);
  const auto p = DiagonalProblem::MakeFixed(x0, DenseMatrix(2, 2, 1.0),
                                            {2.0, 2.0}, {2.0, 2.0});
  SeaOptions o;
  o.epsilon = 1e-8;
  o.criterion = StopCriterion::kResidualAbs;
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(ToString(TotalsMode::kFixed), std::string("fixed"));
  EXPECT_EQ(SparseMatrix::FromDense(x0).nnz(), 4u);
  EXPECT_GE(EntropyObjective(x0, x0), 0.0);
}

}  // namespace
}  // namespace sea
