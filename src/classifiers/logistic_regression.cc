#include "classifiers/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "classifiers/sparse_logistic.h"
#include "common/string_util.h"
#include "linalg/kernels.h"
#include "linalg/solve.h"
#include "optim/cg_newton.h"
#include "optim/gradient_descent.h"
#include "serve/artifact.h"

namespace fairbench {

double LogisticRegression::Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

void LogisticRegression::SetParameters(Vector coefficients, double intercept) {
  coef_ = std::move(coefficients);
  intercept_ = intercept;
  fitted_ = true;
}

Status LogisticRegression::Fit(const Matrix& x, const std::vector<int>& y,
                               const Vector& weights) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  if (y.size() != n || weights.size() != n) {
    return Status::InvalidArgument(
        StrFormat("LogisticRegression::Fit: %zu rows vs %zu labels / %zu "
                  "weights",
                  n, y.size(), weights.size()));
  }
  if (n == 0) {
    return Status::InvalidArgument("LogisticRegression::Fit: empty data");
  }
  for (int label : y) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument("LogisticRegression::Fit: labels not 0/1");
    }
  }

  // Parameters: theta = [intercept, w_1..w_d].
  Vector theta(d + 1, 0.0);
  // Initialize the intercept at the log-odds of the base rate: a good
  // starting point that also handles the all-one-class edge case.
  double pos = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pos += weights[i] * y[i];
    total += weights[i];
  }
  const double base = std::clamp(pos / std::max(total, 1e-12), 1e-6, 1.0 - 1e-6);
  theta[0] = std::log(base / (1.0 - base));

  Vector p(n, 0.0);
  Vector g(n, 0.0);
  bool irls_ok = true;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // Probabilities: one fused pass over X (scores + sigmoid).
    linalg::GemvBiasSigmoid(x.Row(0), n, d, theta.data(), p.data());
    // Gradient of the penalized negative log-likelihood:
    // [sum g, X^T g] with g_i = w_i (p_i - y_i).
    for (std::size_t i = 0; i < n; ++i) g[i] = weights[i] * (p[i] - y[i]);
    Vector grad(d + 1, 0.0);
    grad[0] = Sum(g);
    linalg::GemvT(x.Row(0), n, d, g.data(), grad.data() + 1);
    for (std::size_t j = 1; j <= d; ++j) grad[j] += options_.l2 * theta[j];

    // Hessian: [sum r, (X^T r)^T; X^T r, X^T R X + l2 I].
    Vector r(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = std::max(weights[i] * p[i] * (1.0 - p[i]), 1e-12);
    }
    const Vector xr = x.TransposedMatVec(r);
    const Matrix gram = x.WeightedGram(r);
    Matrix hess(d + 1, d + 1, 0.0);
    hess(0, 0) = Sum(r);
    for (std::size_t j = 0; j < d; ++j) {
      hess(0, j + 1) = xr[j];
      hess(j + 1, 0) = xr[j];
      for (std::size_t k = 0; k < d; ++k) hess(j + 1, k + 1) = gram(j, k);
    }
    for (std::size_t j = 1; j <= d; ++j) hess(j, j) += options_.l2;

    Result<Vector> step = CholeskySolve(hess, grad);
    if (!step.ok()) {
      irls_ok = false;
      break;
    }
    double max_step = 0.0;
    for (std::size_t j = 0; j <= d; ++j) {
      theta[j] -= step.value()[j];
      max_step = std::max(max_step, std::fabs(step.value()[j]));
    }
    if (max_step < options_.tolerance) break;
  }

  if (!irls_ok) {
    // Fallback: minimize the same objective with plain gradient descent
    // (slower but unconditionally stable).
    Objective obj = [&](const Vector& t, Vector* grad) {
      double loss = 0.0;
      Vector z(n, 0.0);
      Vector gv(n, 0.0);
      linalg::Gemv(x.Row(0), n, d, t.data() + 1, z.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double zi = z[i] + t[0];
        const double pi = Sigmoid(zi);
        // Stable log-loss.
        const double zpos = std::max(zi, 0.0);
        loss += weights[i] * (zpos - zi * y[i] +
                              std::log(std::exp(-zpos) + std::exp(zi - zpos)));
        gv[i] = weights[i] * (pi - y[i]);
      }
      (*grad)[0] = Sum(gv);
      linalg::GemvT(x.Row(0), n, d, gv.data(), grad->data() + 1);
      for (std::size_t j = 1; j <= d; ++j) {
        loss += 0.5 * options_.l2 * t[j] * t[j];
        (*grad)[j] += options_.l2 * t[j];
      }
      return loss;
    };
    GradientDescentOptions gd;
    gd.max_iterations = 500;
    OptimResult r2 = MinimizeGradientDescent(obj, Vector(d + 1, 0.0), gd);
    theta = std::move(r2.x);
  }

  intercept_ = theta[0];
  coef_.assign(theta.begin() + 1, theta.end());
  fitted_ = true;
  return Status::OK();
}

Status LogisticRegression::FitSparse(const SparseMatrix& x,
                                     const std::vector<int>& y,
                                     const Vector& weights) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  if (y.size() != n || weights.size() != n) {
    return Status::InvalidArgument(
        StrFormat("LogisticRegression::FitSparse: %zu rows vs %zu labels / "
                  "%zu weights",
                  n, y.size(), weights.size()));
  }
  if (n == 0) {
    return Status::InvalidArgument("LogisticRegression::FitSparse: empty data");
  }
  FAIRBENCH_RETURN_NOT_OK(x.Validate());
  for (int label : y) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument(
          "LogisticRegression::FitSparse: labels not 0/1");
    }
  }

  // Same initialization as the dense path: intercept at the base-rate
  // log-odds.
  Vector theta(d + 1, 0.0);
  double pos = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pos += weights[i] * y[i];
    total += weights[i];
  }
  const double base = std::clamp(pos / std::max(total, 1e-12), 1e-6, 1.0 - 1e-6);
  theta[0] = std::log(base / (1.0 - base));

  SparseLogisticLoss loss(x, y, weights);
  const double l2 = options_.l2;
  Objective obj = [&](const Vector& t, Vector* grad) {
    std::fill(grad->begin(), grad->end(), 0.0);
    double v = loss.Evaluate(t, grad);
    for (std::size_t j = 1; j <= d; ++j) {
      v += 0.5 * l2 * t[j] * t[j];
      (*grad)[j] += l2 * t[j];
    }
    return v;
  };
  HessianVectorProduct hvp = [&](const Vector&, const Vector& v, Vector* hv) {
    std::fill(hv->begin(), hv->end(), 0.0);
    loss.AddHessianVec(v, hv);
    for (std::size_t j = 1; j <= d; ++j) (*hv)[j] += l2 * v[j];
  };
  CgNewtonOptions options;
  options.max_iterations = options_.max_iterations;
  options.tolerance = options_.tolerance;
  OptimResult r = MinimizeCgNewton(obj, hvp, std::move(theta), options);

  intercept_ = r.x[0];
  coef_.assign(r.x.begin() + 1, r.x.end());
  fitted_ = true;
  return Status::OK();
}

Result<double> LogisticRegression::DecisionValue(const Vector& features) const {
  if (!fitted_) {
    return Status::FailedPrecondition("LogisticRegression: not fitted");
  }
  if (features.size() != coef_.size()) {
    return Status::InvalidArgument(
        StrFormat("LogisticRegression: expected %zu features, got %zu",
                  coef_.size(), features.size()));
  }
  return intercept_ + Dot(coef_, features);
}

Result<double> LogisticRegression::PredictProba(const Vector& features) const {
  FAIRBENCH_ASSIGN_OR_RETURN(double z, DecisionValue(features));
  return Sigmoid(z);
}

Result<std::vector<double>> LogisticRegression::PredictProbaBatch(
    const Matrix& x) const {
  if (!fitted_) {
    return Status::FailedPrecondition("LogisticRegression: not fitted");
  }
  if (x.cols() != coef_.size()) {
    return Status::InvalidArgument(
        StrFormat("LogisticRegression: expected %zu features, got %zu",
                  coef_.size(), x.cols()));
  }
  Vector theta(coef_.size() + 1, 0.0);
  theta[0] = intercept_;
  std::copy(coef_.begin(), coef_.end(), theta.begin() + 1);
  std::vector<double> out(x.rows(), 0.0);
  if (!out.empty()) {
    linalg::GemvBiasSigmoid(x.Row(0), x.rows(), x.cols(), theta.data(),
                            out.data());
  }
  return out;
}

Status LogisticRegression::SaveState(ArtifactWriter* writer) const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "LogisticRegression: cannot save an unfitted model");
  }
  writer->WriteTag(ArtifactTag('L', 'O', 'G', 'R'));
  writer->WriteDouble(intercept_);
  writer->WriteDoubleVec(coef_);
  return Status::OK();
}

Status LogisticRegression::LoadState(ArtifactReader* reader) {
  FAIRBENCH_RETURN_NOT_OK(reader->ExpectTag(ArtifactTag('L', 'O', 'G', 'R')));
  FAIRBENCH_ASSIGN_OR_RETURN(double intercept, reader->ReadDouble());
  FAIRBENCH_ASSIGN_OR_RETURN(Vector coef, reader->ReadDoubleVec());
  SetParameters(std::move(coef), intercept);
  return Status::OK();
}

}  // namespace fairbench
