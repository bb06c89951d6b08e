// Shared declarations of the end-to-end benchmark (see README.md).
#ifndef FAIRBENCH_E2EBENCH_BENCH_H_
#define FAIRBENCH_E2EBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace e2e {

/// Command line of one run.
struct Args {
  std::string workload;  ///< grid | serve_warm | serve_churn
  uint64_t seed = 1;     ///< Workload seed: every input derives from it.
  double seconds = 10.0; ///< Length of the measured window.
  bool trace = false;    ///< Traced run: per-layer metrics instead of e2e.
  bool smoke = false;    ///< Tiny inputs, one pass: checks the plumbing only.
  std::string trace_dir; ///< Where the traced run writes its spans.
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: the output checks, attempt counts and metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed output check; the run then reports correct=false.
  void Fail(const std::string& why);
};

Outcome RunGrid(const Args& args, SpanLog& spans);
Outcome RunServe(const Args& args, SpanLog& spans, bool churn);

/// Median / linear-interpolated quantile of a sample (0 when empty).
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Worker count used for every "nproc" in the workloads.
std::size_t Nproc();

/// Counter (or fixed-histogram sum / HDR mean) from the obs registry; 0 when
/// the metric was never registered.
double RegistryCounter(const std::string& name);
double RegistryHistogramSum(const std::string& name);
double RegistryHdrMean(const std::string& name);
/// Sum of every linalg.<kernel>.flops counter.
double RegistryLinalgFlops();

/// Reports self time per layer and residual_s from the recorded spans,
/// rooted at `root`, plus the traced/untraced wall ratio.
void AddTraceMetrics(const SpanLog& spans, uint64_t root, double wall_ratio,
                     Outcome& out);

/// Every per-layer metric name in the order a traced run prints it, with
/// its unit. Workloads that do not exercise a layer report 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace e2e

#endif  // FAIRBENCH_E2EBENCH_BENCH_H_
