#include "fair/in/zafar.h"

#include <algorithm>
#include <cmath>

#include "classifiers/sparse_logistic.h"
#include "linalg/sparse_kernels.h"
#include "optim/cg_newton.h"

namespace fairbench {
namespace {

/// Centered sensitive values s_i - mean(s).
Vector CenteredSensitive(const Dataset& train) {
  const std::size_t n = train.num_rows();
  double mean = 0.0;
  for (int s : train.sensitive()) mean += s;
  mean /= static_cast<double>(n);
  Vector centered(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    centered[i] = static_cast<double>(train.sensitive()[i]) - mean;
  }
  return centered;
}

}  // namespace

Status Zafar::Fit(const Dataset& train, const FairContext& context) {
  FAIRBENCH_RETURN_NOT_OK(train.Validate());
  // S is excluded from the features by construction.
  Result<SparseMatrix> encoded =
      EncodeTrainSparse(train, /*include_sensitive=*/false);
  FAIRBENCH_RETURN_NOT_OK(encoded.status());
  const SparseMatrix& x = encoded.value();
  const std::vector<int>& y = train.labels();
  const Vector& w = train.weights();
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const double inv_n = 1.0 / static_cast<double>(n);
  const Vector sc = CenteredSensitive(train);
  const double c_thresh = options_.cov_threshold;
  const double l2 = options_.l2;

  SparseLogisticLoss loss(x, y, w);
  // The 1/N-scaled log-loss plus the L2 term on the non-intercept weights:
  // value/gradient and the matching Hessian-vector product.
  auto eval_loss = [&](const Vector& t, Vector* grad) {
    std::fill(grad->begin(), grad->end(), 0.0);
    double value = loss.Evaluate(t, grad) * inv_n;
    Scale(inv_n, grad);
    for (std::size_t j = 1; j <= d; ++j) {
      value += 0.5 * l2 * t[j] * t[j];
      (*grad)[j] += l2 * t[j];
    }
    return value;
  };
  auto loss_hvp_into = [&](const Vector& v, Vector* hv) {
    std::fill(hv->begin(), hv->end(), 0.0);
    loss.AddHessianVec(v, hv);
    Scale(inv_n, hv);
    for (std::size_t j = 1; j <= d; ++j) (*hv)[j] += l2 * v[j];
  };

  // cov(theta) = dot(cov_grad, theta): the DP decision-boundary covariance
  // is linear in theta (the intercept component vanishes since sum sc = 0),
  // so the |cov| penalty Hessian is the rank-one 2 mu q q^T wherever the
  // constraint is active.
  Vector cov_grad(d + 1, 0.0);
  linalg::SpMVT(x, sc.data(), cov_grad.data() + 1);
  Scale(inv_n, &cov_grad);

  Vector theta(d + 1, 0.0);

  if (options_.variant == ZafarVariant::kDpFair) {
    double last_excess = 0.0;
    double last_sign = 1.0;
    PenalizedObjective obj = [&](const Vector& t, Vector* grad, double mu) {
      double value = eval_loss(t, grad);
      const double cov = Dot(cov_grad, t);
      const double excess = std::max(0.0, std::fabs(cov) - c_thresh);
      value += mu * excess * excess;
      last_excess = excess;
      last_sign = cov >= 0.0 ? 1.0 : -1.0;
      if (excess > 0.0) Axpy(2.0 * mu * excess * last_sign, cov_grad, grad);
      return value;
    };
    PenalizedHessianVectorProduct hvp = [&](const Vector&, const Vector& v,
                                            double mu, Vector* hv) {
      loss_hvp_into(v, hv);
      if (last_excess > 0.0) {
        Axpy(2.0 * mu * Dot(cov_grad, v), cov_grad, hv);
      }
    };
    theta = MinimizePenaltyCgNewton(obj, hvp, std::move(theta)).x;
  } else if (options_.variant == ZafarVariant::kDpAcc) {
    // Unconstrained optimum loss L* via a plain CG-Newton solve.
    Objective plain = [&](const Vector& t, Vector* grad) {
      return eval_loss(t, grad);
    };
    HessianVectorProduct plain_hvp = [&](const Vector&, const Vector& v,
                                         Vector* hv) { loss_hvp_into(v, hv); };
    const OptimResult base =
        MinimizeCgNewton(plain, plain_hvp, std::move(theta));
    const double max_loss = base.value * (1.0 + options_.loss_slack);

    // Minimize cov^2 subject to loss <= max_loss (penalty form). The Hvp
    // needs the loss gradient and excess from the matching evaluation:
    // H = 2 q q^T + 2 mu (excess H_loss + loss_grad loss_grad^T).
    Vector loss_grad(d + 1, 0.0);
    Vector hv_scratch(d + 1, 0.0);
    double last_excess = 0.0;
    PenalizedObjective obj = [&](const Vector& t, Vector* grad, double mu) {
      const double lv = eval_loss(t, &loss_grad);
      const double cov = Dot(cov_grad, t);
      std::fill(grad->begin(), grad->end(), 0.0);
      double value = cov * cov;
      Axpy(2.0 * cov, cov_grad, grad);
      const double excess = std::max(0.0, lv - max_loss);
      value += mu * excess * excess;
      last_excess = excess;
      if (excess > 0.0) Axpy(2.0 * mu * excess, loss_grad, grad);
      return value;
    };
    PenalizedHessianVectorProduct hvp = [&](const Vector&, const Vector& v,
                                            double mu, Vector* hv) {
      std::fill(hv->begin(), hv->end(), 0.0);
      Axpy(2.0 * Dot(cov_grad, v), cov_grad, hv);
      if (last_excess > 0.0) {
        Axpy(2.0 * mu * Dot(loss_grad, v), loss_grad, hv);
        loss_hvp_into(v, &hv_scratch);
        Axpy(2.0 * mu * last_excess, hv_scratch, hv);
      }
    };
    theta = MinimizePenaltyCgNewton(obj, hvp, base.x).x;
  } else {
    // kEoFair: DCCP with frozen misclassification weights m. With m fixed
    // the EO covariance is again linear in theta — cov_eo = dot(q, theta)
    // with q = -1/N [sum sc m; X^T (sc ⊙ m)] — so each convex subproblem
    // has the same rank-one penalty structure as kDpFair.
    Vector m(n, 0.5);
    Vector scm(n, 0.0);
    Vector q(d + 1, 0.0);
    for (int round = 0; round < options_.dccp_rounds; ++round) {
      for (std::size_t i = 0; i < n; ++i) scm[i] = sc[i] * m[i];
      std::fill(q.begin(), q.end(), 0.0);
      q[0] = Sum(scm);
      linalg::SpMVT(x, scm.data(), q.data() + 1);
      Scale(-inv_n, &q);

      double last_excess = 0.0;
      PenalizedObjective obj = [&](const Vector& t, Vector* grad, double mu) {
        double value = eval_loss(t, grad);
        const double cov = Dot(q, t);
        const double excess = std::max(0.0, std::fabs(cov) - c_thresh);
        value += mu * excess * excess;
        last_excess = excess;
        if (excess > 0.0) {
          Axpy(2.0 * mu * excess * (cov >= 0.0 ? 1.0 : -1.0), q, grad);
        }
        return value;
      };
      PenalizedHessianVectorProduct hvp = [&](const Vector&, const Vector& v,
                                              double mu, Vector* hv) {
        loss_hvp_into(v, hv);
        if (last_excess > 0.0) Axpy(2.0 * mu * Dot(q, v), q, hv);
      };
      PenaltyCgNewtonOptions po;
      po.rounds = 3;
      theta = MinimizePenaltyCgNewton(obj, hvp, std::move(theta), po).x;
      // Refresh misclassification weights: P(misclassified) under theta.
      const Vector z = DecisionValuesSparse(x, theta);
      for (std::size_t i = 0; i < n; ++i) {
        const double y_signed = y[i] == 1 ? 1.0 : -1.0;
        m[i] = LogisticRegression::Sigmoid(-y_signed * z[i]);
      }
    }
  }

  last_cov_ = std::fabs(Dot(cov_grad, theta));
  InstallParameters(theta);
  return Status::OK();
}

}  // namespace fairbench
