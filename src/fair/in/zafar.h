#ifndef FAIRBENCH_FAIR_IN_ZAFAR_H_
#define FAIRBENCH_FAIR_IN_ZAFAR_H_

#include <string>

#include "fair/in/logistic_base.h"

namespace fairbench {

/// The three evaluated ZAFAR variants (paper Fig 8).
enum class ZafarVariant {
  kDpFair,  ///< Maximize accuracy under a demographic-parity constraint.
  kDpAcc,   ///< Maximize parity under an accuracy(-loss) constraint.
  kEoFair,  ///< Maximize accuracy under an equalized-odds constraint.
};

/// Options for ZAFAR.
struct ZafarOptions {
  ZafarVariant variant = ZafarVariant::kDpFair;
  /// Allowed |covariance| between S and the decision-boundary distance
  /// (the paper's multiplicative covariance threshold, ~0 for "fair").
  double cov_threshold = 0.0;
  /// kDpAcc: allowed fractional increase of the unconstrained loss.
  double loss_slack = 0.05;
  double l2 = 1e-3;
  int dccp_rounds = 4;  ///< Convex-concave refreshes for kEoFair.
};

/// ZAFAR (Zafar et al. 2017, "Fairness constraints" / "Fairness beyond
/// disparate treatment") — in-processing via decision-boundary covariance
/// proxies.
///
/// The fairness notion is translated into the empirical covariance between
/// the (centered) sensitive attribute and the signed distance from the
/// decision boundary: cov ~ 0 iff predictions are independent of S
/// (demographic parity), or — restricted to misclassified tuples — iff
/// error rates are balanced (equalized odds). The resulting constrained
/// convex programs are solved by an increasing-penalty method; the
/// equalized-odds proxy is convex-concave and handled by iterated
/// linearization of the misclassification weights (a disciplined
/// convex-concave procedure). S is used only inside the constraint, never
/// as a model feature (paper Appendix A.2).
///
/// Training encodes the design straight into CSR
/// (FeatureEncoder::TransformSparse) and solves every penalized subproblem
/// with truncated CG-Newton (optim/cg_newton.h): each covariance proxy is
/// linear in theta (the EO one with its misclassification weights frozen),
/// so the penalty Hessians have closed forms and one Hessian-vector product
/// costs O(nnz) on one-hot designs. The offline harnesses and the serving
/// tier fit through this one path.
class Zafar final : public EncodedLogisticInProcessor {
 public:
  explicit Zafar(ZafarOptions options = {}) : options_(options) {}

  std::string name() const override {
    switch (options_.variant) {
      case ZafarVariant::kDpFair:
        return "Zafar-DP(fair)";
      case ZafarVariant::kDpAcc:
        return "Zafar-DP(acc)";
      case ZafarVariant::kEoFair:
        return "Zafar-EO(fair)";
    }
    return "Zafar";
  }

  Status Fit(const Dataset& train, const FairContext& context) override;

  /// |cov| achieved on the training data by the fitted model (diagnostic).
  double last_covariance() const { return last_cov_; }

 private:
  ZafarOptions options_;
  double last_cov_ = 0.0;
};

}  // namespace fairbench

#endif  // FAIRBENCH_FAIR_IN_ZAFAR_H_
