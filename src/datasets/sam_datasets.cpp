#include "datasets/sam_datasets.hpp"

#include <algorithm>

#include "datasets/weights.hpp"
#include "support/check.hpp"

namespace sea::datasets {

std::vector<SamSpec> Table3Specs() {
  std::vector<SamSpec> specs;
  auto add = [&specs](std::string name, std::size_t accounts,
                      std::size_t transactions, std::uint64_t seed) {
    SamSpec s;
    s.name = std::move(name);
    s.accounts = accounts;
    s.transactions = transactions;
    s.seed = seed;
    specs.push_back(std::move(s));
  };
  add("STONE", 5, 12, 1962);
  add("TURK", 8, 19, 1973);
  add("SRI", 6, 20, 1970);
  add("USDA82E", 133, 0, 1982);  // fully dense
  add("S500", 500, 0, 500);
  add("S750", 750, 0, 750);
  add("S1000", 1000, 0, 1000);
  return specs;
}

namespace {

// Adds `value` along the directed cycle accounts[0] -> accounts[1] -> ... ->
// accounts[0]. A circulation keeps every account's receipts equal to its
// expenditures, so sums of circulations are exactly balanced SAMs.
void AddCycle(DenseMatrix& x, const std::vector<std::size_t>& accounts,
              double value) {
  for (std::size_t k = 0; k < accounts.size(); ++k) {
    const std::size_t from = accounts[k];
    const std::size_t to = accounts[(k + 1) % accounts.size()];
    x(from, to) += value;
  }
}

// Exactly balanced base SAM. Dense instances start from a symmetric dense
// core (symmetric matrices are trivially balanced) plus random circulations
// that break the symmetry; sparse instances are built from circulations
// alone until the requested transaction count is reached.
DenseMatrix MakeBalancedBase(const SamSpec& spec, Rng& rng) {
  const std::size_t n = spec.accounts;
  DenseMatrix x(n, n, 0.0);

  if (spec.transactions == 0) {
    // Fully dense: symmetric core ...
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double v = rng.Uniform(0.1, 1000.0);
        x(i, j) += v;
        if (j != i) x(j, i) += v;
      }
    }
    // ... plus 4n random circulations to break symmetry.
    std::vector<std::size_t> cyc(3);
    for (std::size_t c = 0; c < 4 * n; ++c) {
      cyc[0] = rng.NextIndex(n);
      do cyc[1] = rng.NextIndex(n); while (cyc[1] == cyc[0]);
      do {
        cyc[2] = rng.NextIndex(n);
      } while (cyc[2] == cyc[0] || cyc[2] == cyc[1]);
      AddCycle(x, cyc, rng.Uniform(10.0, 2000.0));
    }
    return x;
  }

  // Sparse: circulations until the support reaches the transaction count.
  SEA_CHECK_MSG(spec.transactions >= 2, "need at least one 2-cycle");
  std::size_t nnz = 0;
  std::vector<std::size_t> cyc;
  while (nnz < spec.transactions) {
    const std::size_t len = 2 + rng.NextIndex(std::min<std::size_t>(n, 4) - 1);
    cyc.clear();
    while (cyc.size() < len) {
      const std::size_t a = rng.NextIndex(n);
      if (std::find(cyc.begin(), cyc.end(), a) == cyc.end()) cyc.push_back(a);
    }
    AddCycle(x, cyc, rng.Uniform(1.0, 100.0));
    nnz = 0;
    for (double v : x.Flat())
      if (v > 0.0) ++nnz;
  }
  return x;
}

}  // namespace

DiagonalProblem MakeSam(const SamSpec& spec) {
  SEA_CHECK(spec.accounts >= 2);
  Rng rng(spec.seed);
  DenseMatrix x0 = MakeBalancedBase(spec, rng);

  // Perturb the observed transactions so the data are inconsistent (the
  // disparate-sources problem that motivates SAM estimation).
  for (double& v : x0.Flat())
    if (v > 0.0) v *= 1.0 + rng.Uniform(-spec.perturbation, spec.perturbation);

  // Observed total estimates: the average of the (now inconsistent) row and
  // column sums of each account.
  const Vector rows = x0.RowSums();
  const Vector cols = x0.ColSums();
  Vector s0(spec.accounts);
  for (std::size_t i = 0; i < spec.accounts; ++i)
    s0[i] = 0.5 * (rows[i] + cols[i]);

  // Chi-square weights on both transactions and totals.
  Vector alpha(spec.accounts);
  for (std::size_t i = 0; i < spec.accounts; ++i)
    alpha[i] = 1.0 / std::max(s0[i], 1e-3);

  DenseMatrix gamma = ChiSquareWeights(x0);
  return DiagonalProblem::MakeSam(std::move(x0), std::move(gamma),
                                  std::move(s0), std::move(alpha));
}

}  // namespace sea::datasets
