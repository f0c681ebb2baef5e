// Minimum cross-entropy constrained matrix estimation — the RAS objective,
// computed as a splitting equilibration.
//
// The paper's introduction identifies RAS (Deming & Stephan 1940; Bacharach
// 1970) as the most widely applied method in practice and contrasts it with
// SEA's quadratic objective. The two sit in one framework: RAS solves
//
//   minimize  sum_ij x_ij (ln(x_ij / x0_ij) - 1)
//   subject to  sum_j x_ij = s0_i,  sum_i x_ij = d0_j,  x >= 0,
//
// and the *same* dual block-coordinate maximization that gives SEA gives
// RAS. Stationarity yields the biproportional form
// x_ij = x0_ij e^{lambda_i} e^{mu_j}; the row step's exact block maximization
// has the closed form e^{lambda_i} = s0_i / sum_j x0_ij e^{mu_j} — a row
// scaling. Alternating row/column steps IS the RAS iteration, so this solver
// makes the paper's "RAS is the entropy member of the family" claim
// executable: same splitting, different Bregman geometry, no sorting needed
// (the entropy market clears in closed form without breakpoints).
//
// Unlike the quadratic SEA, the entropy estimate cannot move off the support
// of X0 (structural zeros are fixed points of scaling), which is exactly why
// RAS fails on the Mohr-Crown-Polenske instances — certify feasibility first
// with sparse/feasibility_flow.hpp.
#pragma once

#include "core/options.hpp"
#include "core/result.hpp"
#include "linalg/dense_matrix.hpp"

namespace sea {

struct EntropyProblem {
  DenseMatrix x0;  // nonnegative base matrix
  Vector s0, d0;   // fixed totals, consistent (sum s0 == sum d0)

  void Validate() const;
};

// KL divergence objective: sum over the support of
// x ln(x/x0) - x + x0 (nonnegative; zero at x == x0).
double EntropyObjective(const DenseMatrix& x, const DenseMatrix& x0);

// Dual function of the entropy problem at (lambda, mu):
// -sum_ij x0 e^{lambda_i + mu_j} + sum_i lambda_i s0_i + sum_j mu_j d0_j
// + sum_ij x0   (so that strong duality gives the primal objective).
double EntropyDualValue(const EntropyProblem& p, const Vector& lambda,
                        const Vector& mu);

struct EntropySeaRun {
  DenseMatrix x;
  Vector lambda, mu;  // log scaling factors: x = x0 .* exp(lambda_i + mu_j)
  SeaResult result;
};

// Alternating exact row/column dual maximization (== RAS). Uses
// opts.epsilon / opts.criterion / opts.max_iterations / opts.check_every
// (entropy markets clear in closed form, with no breakpoint sort).
// A zero-support row/column with a positive target is diagnosed up front as
// SolveStatus::kInfeasible (no iteration runs); supports on which the
// scaling iteration pins at a non-solution fixed point terminate with
// kStalled (or kNumericalBreakdown if the iterate overflows), with the last
// good iterate returned — see docs/ROBUSTNESS.md.
EntropySeaRun SolveEntropy(const EntropyProblem& problem,
                           const SeaOptions& opts);

// Entropy SAM balancing: minimize the cross-entropy distance to X0 subject
// only to the balance constraints (account i's receipts equal its
// expenditures; totals free) —
//
//   minimize  sum_ij x_ij (ln(x_ij/x0_ij) - 1)
//   s.t.      sum_j x_ij = sum_j x_ji  for all i.
//
// Stationarity gives x_ij = x0_ij e^{nu_i - nu_j}; coordinatewise exact dual
// maximization has the closed form
// e^{2 nu_i} = (sum_j x0_ji e^{nu_j}) / (sum_j x0_ij e^{-nu_j}) — the
// classical biproportional account-balancing iteration. Diagonal cells are
// invariant (e^{nu_i - nu_i} = 1), matching their role in SAMs.
struct EntropySamRun {
  DenseMatrix x;
  Vector nu;  // log potentials: x = x0 .* exp(nu_i - nu_j)
  SeaResult result;
};

EntropySamRun SolveEntropySam(const DenseMatrix& x0, const SeaOptions& opts);

}  // namespace sea
