#include "core/registry.h"

#include "common/string_util.h"
#include "fair/in/celis.h"
#include "fair/in/kearns.h"
#include "fair/in/thomas.h"
#include "fair/in/zafar.h"
#include "fair/in/zhale.h"
#include "fair/post/hardt.h"
#include "fair/post/kamkar.h"
#include "fair/post/pleiss.h"
#include "fair/pre/calmon.h"
#include "fair/pre/feld.h"
#include "fair/pre/kamcal.h"
#include "fair/pre/salimi.h"
#include "fair/pre/zhawu.h"

namespace fairbench {
namespace {

Pipeline BaselineLr() { return PipelineBuilder().Build(); }

template <typename Pre, typename... Args>
Pipeline WithPre(Args... args) {
  return PipelineBuilder().Pre(std::make_unique<Pre>(args...)).Build();
}

/// FELD's protocol trains the downstream model without the sensitive
/// attribute (Feldman et al. repair X precisely so that a model *blind* to
/// S cannot reconstruct it); giving the model S would re-inject the
/// disparity the repair removed.
template <typename Pre, typename... Args>
Pipeline WithPreBlind(Args... args) {
  return PipelineBuilder()
      .Pre(std::make_unique<Pre>(args...))
      .IncludeSensitiveFeature(false)
      .Build();
}

template <typename In, typename... Args>
Pipeline WithIn(Args... args) {
  return PipelineBuilder().In(std::make_unique<In>(args...)).Build();
}

template <typename Post, typename... Args>
Pipeline WithPost(Args... args) {
  return PipelineBuilder().Post(std::make_unique<Post>(args...)).Build();
}

std::vector<ApproachSpec> BuildRegistry() {
  std::vector<ApproachSpec> specs;

  specs.push_back({"lr", "LR", "baseline", {}, [] { return BaselineLr(); }});

  // --- Pre-processing (paper Fig 8, top block). ---
  specs.push_back({"kamcal", "KamCal-DP", "pre", {"di"},
                   [] { return WithPre<KamCal>(); }});
  specs.push_back({"feld10", "Feld-DP(l=1.0)", "pre", {"di"},
                   [] { return WithPreBlind<Feld>(1.0); }});
  specs.push_back({"feld06", "Feld-DP(l=0.6)", "pre", {"di"},
                   [] { return WithPreBlind<Feld>(0.6); }});
  specs.push_back({"calmon", "Calmon-DP", "pre", {"di"},
                   [] { return WithPre<Calmon>(); }});
  specs.push_back({"zhawu", "ZhaWu-PSF", "pre", {"crd"},
                   [] { return WithPre<ZhaWu>(); }});
  specs.push_back({"salimi_maxsat", "Salimi-JF(MaxSAT)", "pre", {"crd"}, [] {
                     SalimiOptions o;
                     o.variant = SalimiVariant::kMaxSat;
                     return WithPre<Salimi>(o);
                   }});
  specs.push_back({"salimi_matfac", "Salimi-JF(MatFac)", "pre", {"crd"}, [] {
                     SalimiOptions o;
                     o.variant = SalimiVariant::kMatFac;
                     return WithPre<Salimi>(o);
                   }});

  // --- In-processing. ---
  specs.push_back({"zafar_dp_fair", "Zafar-DP(fair)", "in", {"di"}, [] {
                     ZafarOptions o;
                     o.variant = ZafarVariant::kDpFair;
                     return WithIn<Zafar>(o);
                   }});
  specs.push_back({"zafar_dp_acc", "Zafar-DP(acc)", "in", {"di"}, [] {
                     ZafarOptions o;
                     o.variant = ZafarVariant::kDpAcc;
                     return WithIn<Zafar>(o);
                   }});
  specs.push_back({"zafar_eo_fair", "Zafar-EO(fair)", "in", {"tprb", "tnrb"},
                   [] {
                     ZafarOptions o;
                     o.variant = ZafarVariant::kEoFair;
                     return WithIn<Zafar>(o);
                   }});
  specs.push_back({"zhale", "ZhaLe-EO", "in", {"tprb", "tnrb"},
                   [] { return WithIn<ZhaLe>(); }});
  // Predictive equality is FPR balance, i.e. the TNRB column.
  specs.push_back({"kearns", "Kearns-PE", "in", {"tnrb"},
                   [] { return WithIn<Kearns>(); }});
  specs.push_back({"celis", "Celis-PP", "in", {},
                   [] { return WithIn<Celis>(); }});
  specs.push_back({"thomas_dp", "Thomas-DP", "in", {"di"}, [] {
                     ThomasOptions o;
                     o.notion = ThomasNotion::kDemographicParity;
                     return WithIn<Thomas>(o);
                   }});
  specs.push_back({"thomas_eo", "Thomas-EO", "in", {"tprb", "tnrb"}, [] {
                     ThomasOptions o;
                     o.notion = ThomasNotion::kEqualizedOdds;
                     return WithIn<Thomas>(o);
                   }});

  // --- Post-processing. ---
  specs.push_back({"kamkar", "KamKar-DP", "post", {"di"},
                   [] { return WithPost<KamKar>(); }});
  specs.push_back({"hardt", "Hardt-EO", "post", {"tprb", "tnrb"},
                   [] { return WithPost<Hardt>(); }});
  specs.push_back({"pleiss", "Pleiss-EOp", "post", {"tprb"},
                   [] { return WithPost<Pleiss>(); }});
  return specs;
}

}  // namespace

const std::vector<ApproachSpec>& ApproachRegistry() {
  static const std::vector<ApproachSpec>* registry =
      new std::vector<ApproachSpec>(BuildRegistry());
  return *registry;
}

Result<const ApproachSpec*> FindApproach(const std::string& id) {
  for (const ApproachSpec& spec : ApproachRegistry()) {
    if (spec.id == id) return &spec;
  }
  return Status::NotFound(StrFormat("unknown approach '%s'", id.c_str()));
}

Result<Pipeline> MakePipeline(const std::string& id) {
  FAIRBENCH_ASSIGN_OR_RETURN(const ApproachSpec* spec, FindApproach(id));
  return spec->make();
}

std::vector<std::string> AllApproachIds() {
  std::vector<std::string> out;
  for (const ApproachSpec& spec : ApproachRegistry()) out.push_back(spec.id);
  return out;
}

std::vector<std::string> ApproachIdsByStage(const std::string& stage) {
  std::vector<std::string> out;
  for (const ApproachSpec& spec : ApproachRegistry()) {
    if (spec.stage == stage) out.push_back(spec.id);
  }
  return out;
}

}  // namespace fairbench
