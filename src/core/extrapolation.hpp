// Type-II Anderson extrapolation of the elastic sweep map
// (docs/ALGORITHM.md §4 "Convergence rate").
//
// One SEA iteration maps the column duals mu to T(mu): the row sweep
// against mu, then the column sweep against the resulting lambda. The
// window keeps the last kDepth difference pairs (dF, dG) of that map's
// residuals f = T(x) - x and outputs g = T(x), the last f and g themselves,
// and the dual value zeta at the last accepted point. Extrapolate forms
//
//   mu_hat = g - dG theta,   theta = argmin_theta || f - dF theta ||_2,
//
// the least squares solved through its kDepth x kDepth normal equations.
// Every sum runs in a fixed index order (pairs oldest first), so mu_hat
// has the same bits at any thread count and on either layout. The
// safeguard that decides whether mu_hat is kept lives in
// core/sweep_backend.hpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sea {

struct CheckpointState;

class AndersonWindow {
 public:
  // M, the pairs kept: measured against 3 and 5 on Table 5 and spe_elastic
  // (EXPERIMENTS.md, "Anderson window depth").
  static constexpr std::size_t kDepth = 2;

  void Reset(std::size_t n);

  // Drops the pairs and the last (f, g): the next Record starts afresh.
  void Clear();
  // Drops the pairs only (a refused step): the last (f, g) still describe
  // a step of the map, so the next Record forms a pair again.
  void DropPairs();

  double zeta() const { return zeta_; }
  void set_zeta(double z) { zeta_ = z; }

  // Writes mu_hat into out. False, out untouched, when the window holds no
  // pair or the normal equations are singular or non-finite.
  bool Extrapolate(std::span<double> out) const;

  // Records one step of the map: input x, output g = T(x).
  void Record(std::span<const double> x, std::span<const double> g);

  // Checkpoint form (format version 2): the pairs oldest first, flattened.
  void Capture(CheckpointState& out) const;
  // False when the state does not fit an n-vector window of kDepth pairs.
  bool Restore(const CheckpointState& in);

 private:
  std::size_t n_ = 0;
  // The pairs, oldest first: pair c is [c * n, (c + 1) * n).
  std::vector<double> df_, dg_;
  std::size_t count_ = 0;
  std::vector<double> f_, g_;  // empty until the first Record
  double zeta_ = 0.0;
};

}  // namespace sea
