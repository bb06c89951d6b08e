#ifndef FAIRBENCH_CORE_REGISTRY_H_
#define FAIRBENCH_CORE_REGISTRY_H_

#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace fairbench {

/// One entry of the approach registry: everything the harnesses need to
/// instantiate and label one of the paper's 18 evaluated variants (plus
/// the fairness-unaware LR baseline).
struct ApproachSpec {
  std::string id;        ///< Stable key, e.g. "zafar_dp_fair".
  std::string display;   ///< Table label, e.g. "Zafar-DP(fair)".
  std::string stage;     ///< "baseline", "pre", "in", or "post".
  /// Normalized fairness metrics this approach optimizes for (the arrows
  /// in Fig 10): subset of {"di", "tprb", "tnrb", "cd", "crd"}.
  std::vector<std::string> target_metrics;
  std::function<Pipeline()> make;  ///< Fresh pipeline per experiment run.
};

/// The full registry, in the paper's presentation order: LR, then pre-,
/// in-, and post-processing approaches.
const std::vector<ApproachSpec>& ApproachRegistry();

/// Spec lookup by id (NotFound for unknown ids).
Result<const ApproachSpec*> FindApproach(const std::string& id);

/// Fresh pipeline for an approach id.
Result<Pipeline> MakePipeline(const std::string& id);

/// All approach ids, registry order.
std::vector<std::string> AllApproachIds();

/// Ids filtered by stage ("pre", "in", "post", "baseline").
std::vector<std::string> ApproachIdsByStage(const std::string& stage);

}  // namespace fairbench

#endif  // FAIRBENCH_CORE_REGISTRY_H_
