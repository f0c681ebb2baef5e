#include "core/extrapolation.hpp"

#include <algorithm>
#include <cmath>

#include "core/checkpoint.hpp"

namespace sea {

void AndersonWindow::Reset(std::size_t n) {
  n_ = n;
  df_.assign(kDepth * n, 0.0);
  dg_.assign(kDepth * n, 0.0);
  Clear();
}

void AndersonWindow::Clear() {
  DropPairs();
  f_.clear();
  g_.clear();
  zeta_ = 0.0;
}

void AndersonWindow::DropPairs() { count_ = 0; }

bool AndersonWindow::Extrapolate(std::span<double> out) const {
  const std::size_t k = count_;
  if (k == 0) return false;
  // Normal equations (dF^T dF) theta = dF^T f, factored by Cholesky.
  double a[kDepth][kDepth] = {}, theta[kDepth] = {};
  for (std::size_t r = 0; r < k; ++r) {
    const double* dr = df_.data() + r * n_;
    for (std::size_t c = 0; c <= r; ++c) {
      const double* dc = df_.data() + c * n_;
      double s = 0.0;
      for (std::size_t j = 0; j < n_; ++j) s += dr[j] * dc[j];
      a[r][c] = s;
    }
    double s = 0.0;
    for (std::size_t j = 0; j < n_; ++j) s += dr[j] * f_[j];
    theta[r] = s;
  }
  // A squared pivot below 1e-12 of its column's squared norm (the column
  // within ~1e-6 of the span of the earlier ones) marks dF as numerically
  // rank deficient: no extrapolation from it.
  double diag[kDepth];
  for (std::size_t r = 0; r < k; ++r) diag[r] = a[r][r];
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < r; ++c) {
      double s = a[r][c];
      for (std::size_t p = 0; p < c; ++p) s -= a[r][p] * a[c][p];
      a[r][c] = s / a[c][c];
    }
    double d = a[r][r];
    for (std::size_t p = 0; p < r; ++p) d -= a[r][p] * a[r][p];
    if (!(d > 1e-12 * diag[r])) return false;
    a[r][r] = std::sqrt(d);
  }
  for (std::size_t r = 0; r < k; ++r) {  // L y = b
    for (std::size_t p = 0; p < r; ++p) theta[r] -= a[r][p] * theta[p];
    theta[r] /= a[r][r];
  }
  for (std::size_t r = k; r-- > 0;) {  // L^T theta = y
    for (std::size_t p = r + 1; p < k; ++p) theta[r] -= a[p][r] * theta[p];
    theta[r] /= a[r][r];
  }
  for (std::size_t r = 0; r < k; ++r)
    if (!std::isfinite(theta[r])) return false;
  for (std::size_t j = 0; j < n_; ++j) {
    double v = g_[j];
    for (std::size_t c = 0; c < k; ++c) v -= theta[c] * dg_[c * n_ + j];
    out[j] = v;
  }
  return true;
}

void AndersonWindow::Record(std::span<const double> x,
                            std::span<const double> g) {
  if (f_.empty()) {
    f_.resize(n_);
    g_.assign(g.begin(), g.end());
    for (std::size_t j = 0; j < n_; ++j) f_[j] = g[j] - x[j];
    return;
  }
  if (count_ == kDepth) {  // evict the oldest pair
    std::copy(df_.begin() + n_, df_.end(), df_.begin());
    std::copy(dg_.begin() + n_, dg_.end(), dg_.begin());
    --count_;
  }
  double* df = df_.data() + count_ * n_;
  double* dg = dg_.data() + count_ * n_;
  ++count_;
  for (std::size_t j = 0; j < n_; ++j) {
    const double f = g[j] - x[j];
    df[j] = f - f_[j];
    dg[j] = g[j] - g_[j];
    f_[j] = f;
    g_[j] = g[j];
  }
}

void AndersonWindow::Capture(CheckpointState& out) const {
  out.accel_f = f_;
  out.accel_g = g_;
  out.accel_zeta = zeta_;
  out.accel_df.assign(df_.begin(), df_.begin() + count_ * n_);
  out.accel_dg.assign(dg_.begin(), dg_.begin() + count_ * n_);
}

bool AndersonWindow::Restore(const CheckpointState& in) {
  const std::size_t base = in.accel_f.size();
  if ((base != 0 && base != n_) || in.accel_g.size() != base ||
      in.accel_df.size() != in.accel_dg.size())
    return false;
  const std::size_t pairs = n_ == 0 ? 0 : in.accel_df.size() / n_;
  if (pairs * n_ != in.accel_df.size() || pairs > kDepth ||
      (base == 0 && pairs != 0))
    return false;
  Clear();
  f_ = in.accel_f;
  g_ = in.accel_g;
  zeta_ = in.accel_zeta;
  count_ = pairs;
  std::copy(in.accel_df.begin(), in.accel_df.end(), df_.begin());
  std::copy(in.accel_dg.begin(), in.accel_dg.end(), dg_.begin());
  return true;
}

}  // namespace sea
