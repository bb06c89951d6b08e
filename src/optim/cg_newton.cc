#include "optim/cg_newton.h"

#include <algorithm>
#include <cmath>

#include "optim/solver_telemetry.h"

namespace fairbench {
namespace {

/// Truncated CG on H d = -g. Returns the number of inner iterations and
/// leaves the (possibly truncated) step in *d. `hp`, `r`, `p` are caller
/// scratch so the outer loop allocates once.
int SolveNewtonSystem(const HessianVectorProduct& hessian_vec, const Vector& x,
                      const Vector& grad, int max_cg, double forcing,
                      Vector* d, Vector* r, Vector* p, Vector* hp) {
  const std::size_t n = grad.size();
  std::fill(d->begin(), d->end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) (*r)[i] = -grad[i];
  *p = *r;
  double rr = SquaredNorm2(*r);
  const double gnorm2 = std::sqrt(rr);
  if (gnorm2 == 0.0) return 0;
  const double cg_tol = std::min(forcing, std::sqrt(gnorm2)) * gnorm2;
  int iters = 0;
  for (; iters < max_cg; ++iters) {
    hessian_vec(x, *p, hp);
    const double curv = Dot(*p, *hp);
    if (!(curv > 1e-16 * SquaredNorm2(*p))) {
      // Non-positive (or numerically vanishing) curvature: the quadratic
      // model is unbounded along p. Keep the progress made so far; on the
      // very first iteration fall back to steepest descent.
      if (iters == 0) *d = *r;
      break;
    }
    const double alpha = rr / curv;
    Axpy(alpha, *p, d);
    Axpy(-alpha, *hp, r);
    const double rr_next = SquaredNorm2(*r);
    if (std::sqrt(rr_next) <= cg_tol) {
      ++iters;
      break;
    }
    const double beta = rr_next / rr;
    rr = rr_next;
    for (std::size_t i = 0; i < n; ++i) (*p)[i] = (*r)[i] + beta * (*p)[i];
  }
  return iters;
}

}  // namespace

OptimResult MinimizeCgNewton(const Objective& objective,
                             const HessianVectorProduct& hessian_vec,
                             Vector x0, const CgNewtonOptions& options) {
  OptimResult result;
  result.x = std::move(x0);
  const std::size_t n = result.x.size();
  const int max_cg =
      options.max_cg_iterations > 0
          ? options.max_cg_iterations
          : static_cast<int>(std::min<std::size_t>(std::max<std::size_t>(n, 1),
                                                   250));
  Vector grad(n, 0.0);
  double fx = objective(result.x, &grad);
  result.grad_norm = NormInf(grad);
  Vector d(n, 0.0), r(n, 0.0), p(n, 0.0), hp(n, 0.0);
  Vector trial(n, 0.0), trial_grad(n, 0.0);
  long cg_total = 0;

  for (int it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    const double gnorm = NormInf(grad);
    result.grad_norm = gnorm;
    if (gnorm < options.tolerance) {
      result.converged = true;
      break;
    }
    // The hessian_vec contract holds here: the last objective evaluation
    // (initial, or the accepted line-search trial) was at result.x.
    cg_total += SolveNewtonSystem(hessian_vec, result.x, grad, max_cg,
                                  options.cg_forcing, &d, &r, &p, &hp);
    double dir_deriv = Dot(grad, d);
    if (!(dir_deriv < 0.0)) {
      // CG returned a non-descent (or zero) direction — possible only
      // under indefinite curvature; restart from steepest descent.
      for (std::size_t i = 0; i < n; ++i) d[i] = -grad[i];
      dir_deriv = -SquaredNorm2(grad);
      if (dir_deriv == 0.0) {
        result.converged = true;
        break;
      }
    }
    double t = 1.0;
    bool accepted = false;
    double ftrial = fx;
    for (int bt = 0; bt < options.max_backtracks; ++bt) {
      trial = result.x;
      Axpy(t, d, &trial);
      ftrial = objective(trial, &trial_grad);
      if (std::isfinite(ftrial) &&
          ftrial <= fx + options.armijo_c * t * dir_deriv) {
        accepted = true;
        break;
      }
      ++result.backtracks;
      t *= options.backtrack_factor;
    }
    if (!accepted) {
      // Line search stalled: re-establish the cached-curvature contract at
      // the current iterate before giving up.
      fx = objective(result.x, &grad);
      result.converged = NormInf(grad) < 1e-3;
      break;
    }
    const bool progressed = ftrial < fx;
    result.x = trial;
    grad = trial_grad;
    fx = ftrial;
    result.grad_norm = NormInf(grad);
    if (!progressed) {
      // Armijo accepted a step that leaves f unchanged: f is flat to
      // rounding along d, so further iterations would only burn
      // backtracks. Same convergence verdict as a stalled line search.
      result.converged = result.grad_norm < 1e-3;
      break;
    }
  }
  result.value = fx;
  RecordSolveTelemetry("optim.cg_newton", result);
  FAIRBENCH_COUNTER_ADD("optim.cg_newton.cg_iterations",
                        static_cast<uint64_t>(cg_total));
  (void)cg_total;  // read only by the counter macro, absent under OBS=OFF
  return result;
}

OptimResult MinimizePenaltyCgNewton(const PenalizedObjective& penalized,
                                    const PenalizedHessianVectorProduct& hvp,
                                    Vector x0,
                                    const PenaltyCgNewtonOptions& options) {
  OptimResult result;
  result.x = std::move(x0);
  double mu = options.initial_mu;
  for (int round = 0; round < options.rounds; ++round) {
    Objective inner = [&penalized, mu](const Vector& x, Vector* grad) {
      return penalized(x, grad, mu);
    };
    HessianVectorProduct inner_hvp = [&hvp, mu](const Vector& x,
                                                const Vector& v, Vector* hv) {
      hvp(x, v, mu, hv);
    };
    OptimResult r =
        MinimizeCgNewton(inner, inner_hvp, std::move(result.x), options.inner);
    result.x = std::move(r.x);
    result.value = r.value;
    result.iterations += r.iterations;
    result.backtracks += r.backtracks;
    result.converged = r.converged;
    result.grad_norm = r.grad_norm;
    mu *= options.mu_growth;
  }
  RecordSolveTelemetry("optim.penalty_cg", result);
  return result;
}

}  // namespace fairbench
