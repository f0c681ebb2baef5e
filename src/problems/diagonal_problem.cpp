#include "problems/diagonal_problem.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace sea {

const char* ToString(TotalsMode mode) {
  switch (mode) {
    case TotalsMode::kFixed:
      return "fixed";
    case TotalsMode::kElastic:
      return "elastic";
    case TotalsMode::kSam:
      return "sam";
    case TotalsMode::kInterval:
      return "interval";
  }
  return "?";
}

template <class Matrix>
BasicDiagonalProblem<Matrix> BasicDiagonalProblem<Matrix>::MakeFixed(
    Matrix x0, Matrix gamma, Vector s0, Vector d0) {
  BasicDiagonalProblem p;
  p.mode_ = TotalsMode::kFixed;
  p.x0_ = std::move(x0);
  p.gamma_ = std::move(gamma);
  p.s0_ = std::move(s0);
  p.d0_ = std::move(d0);
  p.Validate();
  return p;
}

template <class Matrix>
BasicDiagonalProblem<Matrix> BasicDiagonalProblem<Matrix>::MakeElastic(
    Matrix x0, Matrix gamma, Vector s0, Vector alpha, Vector d0, Vector beta) {
  BasicDiagonalProblem p;
  p.mode_ = TotalsMode::kElastic;
  p.x0_ = std::move(x0);
  p.gamma_ = std::move(gamma);
  p.s0_ = std::move(s0);
  p.alpha_ = std::move(alpha);
  p.d0_ = std::move(d0);
  p.beta_ = std::move(beta);
  p.Validate();
  return p;
}

template <class Matrix>
BasicDiagonalProblem<Matrix> BasicDiagonalProblem<Matrix>::MakeInterval(
    Matrix x0, Matrix gamma, Vector s0, Vector alpha, Vector s_lo, Vector s_hi,
    Vector d0, Vector beta, Vector d_lo, Vector d_hi) {
  BasicDiagonalProblem p;
  p.mode_ = TotalsMode::kInterval;
  p.x0_ = std::move(x0);
  p.gamma_ = std::move(gamma);
  p.s0_ = std::move(s0);
  p.alpha_ = std::move(alpha);
  p.s_lo_ = std::move(s_lo);
  p.s_hi_ = std::move(s_hi);
  p.d0_ = std::move(d0);
  p.beta_ = std::move(beta);
  p.d_lo_ = std::move(d_lo);
  p.d_hi_ = std::move(d_hi);
  p.Validate();
  return p;
}

template <class Matrix>
BasicDiagonalProblem<Matrix> BasicDiagonalProblem<Matrix>::MakeSam(
    Matrix x0, Matrix gamma, Vector s0, Vector alpha) {
  BasicDiagonalProblem p;
  p.mode_ = TotalsMode::kSam;
  p.x0_ = std::move(x0);
  p.gamma_ = std::move(gamma);
  p.s0_ = std::move(s0);
  p.alpha_ = std::move(alpha);
  p.Validate();
  return p;
}

template <class Matrix>
std::size_t BasicDiagonalProblem<Matrix>::num_variables() const {
  std::size_t nv = nnz();
  if (mode_ == TotalsMode::kElastic || mode_ == TotalsMode::kInterval)
    nv += m() + n();
  if (mode_ == TotalsMode::kSam) nv += n();
  return nv;
}

template <class Matrix>
void BasicDiagonalProblem<Matrix>::Validate() const {
  SEA_CHECK_MSG(x0_.rows() > 0 && x0_.cols() > 0, "empty matrix");
  SEA_CHECK_MSG(SameLayout(gamma_, x0_), "gamma layout mismatch");
  for (double g : ArcValues(gamma_))
    SEA_CHECK_MSG(g > 0.0, "gamma weights must be strictly positive");

  SEA_CHECK_MSG(s0_.size() == m(), "s0 size mismatch");
  switch (mode_) {
    case TotalsMode::kFixed: {
      SEA_CHECK_MSG(d0_.size() == n(), "d0 size mismatch");
      double ssum = 0.0, dsum = 0.0;
      for (double v : s0_) {
        SEA_CHECK_MSG(v >= 0.0, "fixed row totals must be nonnegative");
        ssum += v;
      }
      for (double v : d0_) {
        SEA_CHECK_MSG(v >= 0.0, "fixed column totals must be nonnegative");
        dsum += v;
      }
      const double scale = std::max({1.0, std::abs(ssum), std::abs(dsum)});
      SEA_CHECK_MSG(std::abs(ssum - dsum) <= 1e-8 * scale,
                    "fixed totals are inconsistent: sum(s0) != sum(d0)");
      break;
    }
    case TotalsMode::kInterval:
      SEA_CHECK_MSG(s_lo_.size() == m() && s_hi_.size() == m(),
                    "row interval size mismatch");
      SEA_CHECK_MSG(d_lo_.size() == n() && d_hi_.size() == n(),
                    "column interval size mismatch");
      for (std::size_t i = 0; i < m(); ++i)
        SEA_CHECK_MSG(0.0 <= s_lo_[i] && s_lo_[i] <= s_hi_[i],
                      "row interval must satisfy 0 <= lo <= hi");
      for (std::size_t j = 0; j < n(); ++j)
        SEA_CHECK_MSG(0.0 <= d_lo_[j] && d_lo_[j] <= d_hi_[j],
                      "column interval must satisfy 0 <= lo <= hi");
      [[fallthrough]];  // interval shares the elastic shape requirements
    case TotalsMode::kElastic: {
      SEA_CHECK_MSG(alpha_.size() == m(), "alpha size mismatch");
      SEA_CHECK_MSG(d0_.size() == n(), "d0 size mismatch");
      SEA_CHECK_MSG(beta_.size() == n(), "beta size mismatch");
      for (double a : alpha_)
        SEA_CHECK_MSG(a > 0.0, "alpha weights must be strictly positive");
      for (double b : beta_)
        SEA_CHECK_MSG(b > 0.0, "beta weights must be strictly positive");
      break;
    }
    case TotalsMode::kSam: {
      SEA_CHECK_MSG(m() == n(), "SAM problems must be square");
      SEA_CHECK_MSG(alpha_.size() == n(), "alpha size mismatch");
      for (double a : alpha_)
        SEA_CHECK_MSG(a > 0.0, "alpha weights must be strictly positive");
      break;
    }
  }
}

template <class Matrix>
double BasicDiagonalProblem<Matrix>::Objective(const Matrix& x, const Vector& s,
                                               const Vector& d) const {
  SEA_CHECK_MSG(SameLayout(x, x0_), "estimate layout mismatch");
  double obj = 0.0;
  const auto xf = ArcValues(x);
  const auto x0f = ArcValues(x0_);
  const auto gf = ArcValues(gamma_);
  for (std::size_t k = 0; k < xf.size(); ++k) {
    const double dev = xf[k] - x0f[k];
    obj += gf[k] * dev * dev;
  }
  if (mode_ != TotalsMode::kFixed) {
    SEA_CHECK(s.size() == s0_.size());
    for (std::size_t i = 0; i < s0_.size(); ++i) {
      const double dev = s[i] - s0_[i];
      obj += alpha_[i] * dev * dev;
    }
  }
  if (mode_ == TotalsMode::kElastic || mode_ == TotalsMode::kInterval) {
    SEA_CHECK(d.size() == d0_.size());
    for (std::size_t j = 0; j < d0_.size(); ++j) {
      const double dev = d[j] - d0_[j];
      obj += beta_[j] * dev * dev;
    }
  }
  return obj;
}

template class BasicDiagonalProblem<DenseMatrix>;
template class BasicDiagonalProblem<SparseMatrix>;

}  // namespace sea
