#include "problems/general_problem.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "support/check.hpp"

namespace sea {

namespace {

// c = -2 Q z0, constant = z0^T Q z0, so that z^T Q z + c^T z + constant equals
// (z - z0)^T Q (z - z0).
void DeviationToLinear(const DenseMatrix& q, const Vector& z0, Vector& c,
                       double& constant) {
  c.assign(z0.size(), 0.0);
  Gemv(q, z0, c);
  constant = Dot(c, z0);
  for (double& v : c) v *= -2.0;
}

}  // namespace

GeneralProblem GeneralProblem::MakeFixed(std::size_t m, std::size_t n,
                                         DenseMatrix g, Vector cx, Vector s0,
                                         Vector d0) {
  GeneralProblem p;
  p.mode_ = TotalsMode::kFixed;
  p.m_ = m;
  p.n_ = n;
  p.g_ = std::move(g);
  p.cx_ = std::move(cx);
  p.s0_ = std::move(s0);
  p.d0_ = std::move(d0);
  p.Validate();
  return p;
}

GeneralProblem GeneralProblem::MakeFixedFromCenters(const DenseMatrix& x0,
                                                    DenseMatrix g, Vector s0,
                                                    Vector d0) {
  GeneralProblem p;
  p.mode_ = TotalsMode::kFixed;
  p.m_ = x0.rows();
  p.n_ = x0.cols();
  p.g_ = std::move(g);
  Vector x0v(x0.Flat().begin(), x0.Flat().end());
  DeviationToLinear(p.g_, x0v, p.cx_, p.constant_);
  p.s0_ = std::move(s0);
  p.d0_ = std::move(d0);
  p.Validate();
  return p;
}

GeneralProblem GeneralProblem::MakeElasticFromCenters(
    const DenseMatrix& x0, DenseMatrix g, const Vector& s0, DenseMatrix a,
    const Vector& d0, DenseMatrix b) {
  GeneralProblem p;
  p.mode_ = TotalsMode::kElastic;
  p.m_ = x0.rows();
  p.n_ = x0.cols();
  p.g_ = std::move(g);
  p.a_ = std::move(a);
  p.b_ = std::move(b);
  Vector x0v(x0.Flat().begin(), x0.Flat().end());
  double cx_const = 0.0, cs_const = 0.0, cd_const = 0.0;
  DeviationToLinear(p.g_, x0v, p.cx_, cx_const);
  DeviationToLinear(p.a_, s0, p.cs_, cs_const);
  DeviationToLinear(p.b_, d0, p.cd_, cd_const);
  p.constant_ = cx_const + cs_const + cd_const;
  p.Validate();
  return p;
}

GeneralProblem GeneralProblem::MakeSamFromCenters(const DenseMatrix& x0,
                                                  DenseMatrix g,
                                                  const Vector& s0,
                                                  DenseMatrix a) {
  GeneralProblem p;
  p.mode_ = TotalsMode::kSam;
  p.m_ = x0.rows();
  p.n_ = x0.cols();
  p.g_ = std::move(g);
  p.a_ = std::move(a);
  Vector x0v(x0.Flat().begin(), x0.Flat().end());
  double cx_const = 0.0, cs_const = 0.0;
  DeviationToLinear(p.g_, x0v, p.cx_, cx_const);
  DeviationToLinear(p.a_, s0, p.cs_, cs_const);
  p.constant_ = cx_const + cs_const;
  p.Validate();
  return p;
}

void GeneralProblem::Validate() const {
  SEA_CHECK_MSG(m_ > 0 && n_ > 0, "empty problem");
  const std::size_t mn = m_ * n_;
  SEA_CHECK_MSG(g_.rows() == mn && g_.cols() == mn, "G must be mn x mn");
  SEA_CHECK_MSG(cx_.size() == mn, "cx size mismatch");
  for (std::size_t k = 0; k < mn; ++k)
    SEA_CHECK_MSG(g_(k, k) > 0.0, "G diagonal must be strictly positive");

  SEA_CHECK_MSG(mode_ != TotalsMode::kInterval,
                "general problems support fixed/elastic/SAM totals; interval "
                "totals are a diagonal-problem feature");
  switch (mode_) {
    case TotalsMode::kInterval:
      break;  // rejected above
    case TotalsMode::kFixed: {
      SEA_CHECK_MSG(s0_.size() == m_ && d0_.size() == n_,
                    "fixed totals size mismatch");
      double ssum = 0.0, dsum = 0.0;
      for (double v : s0_) ssum += v;
      for (double v : d0_) dsum += v;
      const double scale = std::max({1.0, std::abs(ssum), std::abs(dsum)});
      SEA_CHECK_MSG(std::abs(ssum - dsum) <= 1e-8 * scale,
                    "fixed totals are inconsistent");
      break;
    }
    case TotalsMode::kElastic: {
      SEA_CHECK_MSG(a_.rows() == m_ && a_.cols() == m_, "A must be m x m");
      SEA_CHECK_MSG(b_.rows() == n_ && b_.cols() == n_, "B must be n x n");
      SEA_CHECK_MSG(cs_.size() == m_ && cd_.size() == n_,
                    "linear term size mismatch");
      for (std::size_t i = 0; i < m_; ++i)
        SEA_CHECK_MSG(a_(i, i) > 0.0, "A diagonal must be strictly positive");
      for (std::size_t j = 0; j < n_; ++j)
        SEA_CHECK_MSG(b_(j, j) > 0.0, "B diagonal must be strictly positive");
      break;
    }
    case TotalsMode::kSam: {
      SEA_CHECK_MSG(m_ == n_, "SAM problems must be square");
      SEA_CHECK_MSG(a_.rows() == n_ && a_.cols() == n_, "A must be n x n");
      SEA_CHECK_MSG(cs_.size() == n_, "cs size mismatch");
      for (std::size_t i = 0; i < n_; ++i)
        SEA_CHECK_MSG(a_(i, i) > 0.0, "A diagonal must be strictly positive");
      break;
    }
  }
}

double GeneralProblem::Objective(const Vector& x, const Vector& s,
                                 const Vector& d, ThreadPool* pool) const {
  SEA_CHECK(x.size() == num_x());
  Vector tmp(x.size());
  GemvParallel(g_, x, tmp, pool);
  double obj = Dot(tmp, x) + Dot(cx_, x) + constant_;
  if (mode_ == TotalsMode::kElastic || mode_ == TotalsMode::kSam) {
    SEA_CHECK(s.size() == a_.rows());
    Vector ts(s.size());
    Gemv(a_, s, ts);
    obj += Dot(ts, s) + Dot(cs_, s);
  }
  if (mode_ == TotalsMode::kElastic) {
    SEA_CHECK(d.size() == b_.rows());
    Vector td(d.size());
    Gemv(b_, d, td);
    obj += Dot(td, d) + Dot(cd_, d);
  }
  return obj;
}

void GeneralProblem::GradientX(const Vector& x, Vector& out,
                               ThreadPool* pool) const {
  SEA_CHECK(x.size() == num_x());
  out.resize(x.size());
  GemvParallel(g_, x, out, pool);
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = 2.0 * out[k] + cx_[k];
}

void GeneralProblem::GradientS(const Vector& s, Vector& out) const {
  SEA_CHECK(mode_ != TotalsMode::kFixed);
  out.resize(s.size());
  Gemv(a_, s, out);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = 2.0 * out[i] + cs_[i];
}

void GeneralProblem::GradientD(const Vector& d, Vector& out) const {
  SEA_CHECK(mode_ == TotalsMode::kElastic);
  out.resize(d.size());
  Gemv(b_, d, out);
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = 2.0 * out[j] + cd_[j];
}

DiagonalProblem GeneralProblem::Diagonalize(const Vector& x_prev,
                                            const Vector& s_prev,
                                            const Vector& d_prev,
                                            ThreadPool* pool) const {
  const std::size_t mn = num_x();
  SEA_CHECK(x_prev.size() == mn);

  // x-part: gamma_k = G_kk, center_k = z_k - grad_k / (2 gamma_k).
  DenseMatrix gamma(m_, n_);
  DenseMatrix centers(m_, n_);
  Vector grad(mn);
  GradientX(x_prev, grad, pool);
  {
    auto gam = gamma.Flat();
    auto cen = centers.Flat();
    for (std::size_t k = 0; k < mn; ++k) {
      const double gkk = g_(k, k);
      gam[k] = gkk;
      cen[k] = x_prev[k] - grad[k] / (2.0 * gkk);
    }
  }

  switch (mode_) {
    case TotalsMode::kInterval:
      break;  // rejected by Validate
    case TotalsMode::kFixed:
      return DiagonalProblem::MakeFixed(std::move(centers), std::move(gamma),
                                        s0_, d0_);
    case TotalsMode::kElastic: {
      SEA_CHECK(s_prev.size() == m_ && d_prev.size() == n_);
      Vector alpha(m_), sc(m_), beta(n_), dc(n_), gs, gd;
      GradientS(s_prev, gs);
      GradientD(d_prev, gd);
      for (std::size_t i = 0; i < m_; ++i) {
        alpha[i] = a_(i, i);
        sc[i] = s_prev[i] - gs[i] / (2.0 * alpha[i]);
      }
      for (std::size_t j = 0; j < n_; ++j) {
        beta[j] = b_(j, j);
        dc[j] = d_prev[j] - gd[j] / (2.0 * beta[j]);
      }
      return DiagonalProblem::MakeElastic(std::move(centers), std::move(gamma),
                                          std::move(sc), std::move(alpha),
                                          std::move(dc), std::move(beta));
    }
    case TotalsMode::kSam: {
      SEA_CHECK(s_prev.size() == n_);
      Vector alpha(n_), sc(n_), gs;
      GradientS(s_prev, gs);
      for (std::size_t i = 0; i < n_; ++i) {
        alpha[i] = a_(i, i);
        sc[i] = s_prev[i] - gs[i] / (2.0 * alpha[i]);
      }
      return DiagonalProblem::MakeSam(std::move(centers), std::move(gamma),
                                      std::move(sc), std::move(alpha));
    }
  }
  SEA_INTERNAL_CHECK(false);
  return {};
}

}  // namespace sea
