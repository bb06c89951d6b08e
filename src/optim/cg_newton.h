#ifndef FAIRBENCH_OPTIM_CG_NEWTON_H_
#define FAIRBENCH_OPTIM_CG_NEWTON_H_

#include <functional>

#include "optim/gradient_descent.h"
#include "optim/objective.h"

namespace fairbench {

/// Hessian-vector product callback: fills *hv (pre-sized to v.size()) with
/// H(x) v, the objective's Hessian at x applied to v.
///
/// Contract: MinimizeCgNewton only calls the product at the point of the
/// most recent `objective` evaluation, so implementations may (and the
/// sparse logistic objectives do) reuse curvature state cached by that
/// evaluation — the sigmoid probabilities p_i — instead of recomputing a
/// forward pass per CG iteration.
using HessianVectorProduct =
    std::function<void(const Vector& x, const Vector& v, Vector* hv)>;

/// Options for truncated conjugate-gradient Newton.
struct CgNewtonOptions {
  int max_iterations = 100;   ///< Outer Newton iterations.
  double tolerance = 1e-8;    ///< Stop when ||grad||_inf < tolerance.
  /// Inner CG iteration cap per Newton step; 0 means min(dim, 250).
  int max_cg_iterations = 0;
  /// Forcing constant: the inner solve stops once the CG residual drops
  /// below min(cg_forcing, sqrt(||g||_2)) * ||g||_2 — loose solves far
  /// from the optimum, near-exact Newton steps close to it (the standard
  /// Eisenstat–Walker inexactness schedule).
  double cg_forcing = 0.5;
  double armijo_c = 1e-4;
  double backtrack_factor = 0.5;
  int max_backtracks = 40;
};

/// Minimizes a smooth convex objective by the truncated (Hessian-free)
/// Newton method: each outer iteration runs conjugate gradient on
/// H d = -g using only Hessian-vector products, then backtracks along d
/// under the Armijo condition. The Hessian is never materialized, which
/// is the point: on a CSR one-hot design the product costs O(nnz) while
/// the explicit IRLS Gram matrix costs O(nnz · d) to build and O(d^3) to
/// factor. Negative-curvature directions (non-convex corners such as the
/// penalty boundary in the ZAFAR surrogates) truncate the inner solve and
/// fall back to the accumulated — or, first thing, steepest-descent —
/// direction.
///
/// Deterministic: no randomness, and the iterate trajectory is pinned by
/// tests/optim/cg_newton_test.cc the same way gd's is. An Armijo step that
/// does not lower f ends the solve (converged iff ||grad||_inf < 1e-3,
/// the stalled-line-search verdict): it means f is flat to rounding, as
/// near an optimum whose gradient floor sits just above `tolerance`.
/// Telemetry: records "optim.cg_newton" solver counters plus the total
/// inner iteration count ("optim.cg_newton.cg_iterations").
OptimResult MinimizeCgNewton(const Objective& objective,
                             const HessianVectorProduct& hessian_vec,
                             Vector x0, const CgNewtonOptions& options = {});

/// Hessian-vector product of a penalized objective at penalty weight `mu`
/// (same caching contract as HessianVectorProduct: only called at the
/// point — and mu — of the most recent penalized-objective evaluation).
using PenalizedHessianVectorProduct = std::function<void(
    const Vector& x, const Vector& v, double mu, Vector* hv)>;

/// Options for the CG-Newton penalty driver. Round schedule defaults match
/// MinimizePenalty (gradient_descent.h) so the two drivers traverse the
/// same sequence of subproblems.
struct PenaltyCgNewtonOptions {
  int rounds = 6;
  double initial_mu = 10.0;
  double mu_growth = 10.0;
  CgNewtonOptions inner;
};

/// Penalty-method driver with truncated CG-Newton inner solves: the
/// second-order counterpart of MinimizePenalty for objectives that can
/// supply Hessian-vector products (the sparse ZAFAR surrogates). Records
/// "optim.penalty_cg" solver counters.
OptimResult MinimizePenaltyCgNewton(const PenalizedObjective& penalized,
                                    const PenalizedHessianVectorProduct& hvp,
                                    Vector x0,
                                    const PenaltyCgNewtonOptions& options = {});

}  // namespace fairbench

#endif  // FAIRBENCH_OPTIM_CG_NEWTON_H_
