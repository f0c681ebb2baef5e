#include "core/multiplier_rebalance.hpp"

#include <cmath>
#include <numeric>
#include <vector>

#include "problems/layout.hpp"
#include "support/check.hpp"

namespace sea {

namespace {

// Union-find with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t Find(std::size_t a) {
    while (parent_[a] != a) {
      parent_[a] = parent_[parent_[a]];
      a = parent_[a];
    }
    return a;
  }

  void Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace

template <class Matrix>
std::size_t SupportComponents(const BasicDiagonalProblem<Matrix>& p,
                              const Vector& lambda, const Vector& mu,
                              std::vector<std::size_t>& component_of) {
  const std::size_t m = p.m(), n = p.n();
  SEA_CHECK(lambda.size() == m && mu.size() == n);
  UnionFind uf(m + n);
  const auto x0 = ArcValues(p.x0());
  const auto g = ArcValues(p.gamma());
  ForEachArc(p.x0(), [&](std::size_t i, std::size_t j, std::size_t k) {
    const double x = x0[k] + (lambda[i] + mu[j]) / (2.0 * g[k]);
    if (x > 0.0) uf.Union(i, m + j);
  });
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  component_of.assign(m + n, 0);
  std::vector<std::size_t> root_to_id(m + n, kNone);
  std::size_t next_id = 0;
  for (std::size_t v = 0; v < m + n; ++v) {
    const std::size_t r = uf.Find(v);
    if (root_to_id[r] == kNone) root_to_id[r] = next_id++;
    component_of[v] = root_to_id[r];
  }
  return next_id;
}

template <class Matrix>
RebalanceResult RebalanceMultipliers(const BasicDiagonalProblem<Matrix>& p,
                                     Vector& lambda, Vector& mu, double bound) {
  SEA_CHECK_MSG(p.mode() == TotalsMode::kFixed || p.mode() == TotalsMode::kSam,
                "only the fixed and SAM duals have gauge freedom");
  SEA_CHECK(bound > 0.0);
  const std::size_t m = p.m(), n = p.n();

  std::vector<std::size_t> comp;
  RebalanceResult res;
  res.components = SupportComponents(p, lambda, mu, comp);

  // Per component, the shift is the first out-of-bound lambda (the paper's
  // lambda-tilde); after the shift that lambda is exactly zero and every
  // other multiplier in the component moves by the same constant, keeping
  // lambda_i + mu_j invariant inside the component.
  std::vector<double> shift(res.components, 0.0);
  std::vector<bool> needs(res.components, false);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t c = comp[i];
    if (!needs[c] && std::abs(lambda[i]) > bound) {
      needs[c] = true;
      shift[c] = lambda[i];
      ++res.shifted_components;
    }
  }
  if (res.shifted_components == 0) return res;

  for (std::size_t i = 0; i < m; ++i)
    if (needs[comp[i]]) lambda[i] -= shift[comp[i]];
  for (std::size_t j = 0; j < n; ++j)
    if (needs[comp[m + j]]) mu[j] += shift[comp[m + j]];
  return res;
}

template std::size_t SupportComponents(const DiagonalProblem&, const Vector&,
                                       const Vector&,
                                       std::vector<std::size_t>&);
template std::size_t SupportComponents(const SparseDiagonalProblem&,
                                       const Vector&, const Vector&,
                                       std::vector<std::size_t>&);
template RebalanceResult RebalanceMultipliers(const DiagonalProblem&, Vector&,
                                              Vector&, double);
template RebalanceResult RebalanceMultipliers(const SparseDiagonalProblem&,
                                              Vector&, Vector&, double);

}  // namespace sea
