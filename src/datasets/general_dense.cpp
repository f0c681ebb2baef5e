#include "datasets/general_dense.hpp"

#include "linalg/spd_generators.hpp"
#include "support/check.hpp"

namespace sea::datasets {

std::vector<std::size_t> Table7Sizes() {
  return {10, 20, 30, 50, 70, 100, 120};
}

GeneralProblem MakeGeneralDense(std::size_t m, std::size_t n, Rng& rng,
                                const GeneralDenseOptions& opts) {
  SEA_CHECK(m > 0 && n > 0);
  const std::size_t mn = m * n;

  DenseMatrix g = MakeDiagonallyDominantSpd(mn, rng, SpdOptions{});

  Vector cx = rng.UniformVector(mn, opts.lin_lo, opts.lin_hi);

  // Totals from a random nonnegative reference plan (guarantees a nonempty,
  // consistent transportation polytope).
  Vector s0(m, 0.0), d0(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double v = rng.Uniform(opts.plan_lo, opts.plan_hi);
      s0[i] += v;
      d0[j] += v;
    }
  }

  return GeneralProblem::MakeFixed(m, n, std::move(g), std::move(cx),
                                   std::move(s0), std::move(d0));
}

}  // namespace sea::datasets
