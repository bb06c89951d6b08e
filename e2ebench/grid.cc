// Workload `grid`: the paper's Fig 10 protocol as a batch job — all 19
// approaches x the four calibrated generators at one shared scale factor,
// 70/30 split, all nine metrics including CD. The timed pass calls
// RunExperiment with run.threads = nproc; serving is never touched.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "data/generators/population.h"
#include "data/split.h"
#include "metrics/causal_discrimination.h"
#include "metrics/report.h"
#include "obs/metrics.h"

namespace e2e {
namespace {

using fairbench::ApproachResult;
using fairbench::Dataset;
using fairbench::ExperimentOptions;
using fairbench::ExperimentResult;
using fairbench::FairContext;
using fairbench::PopulationConfig;

// Shared scale factor on the paper's row counts (Adult 45,222 -> 2,261),
// with the figure benches' 300-row floor. Chosen so one parallel pass takes
// a few seconds and a run holds several passes.
constexpr double kScale = 0.05;
constexpr double kSmokeScale = 0.0;  // every dataset at the 300-row floor
constexpr std::size_t kMinRows = 300;
// Set-up is generation, splitting and the first-touch pass, repeated.
constexpr int kSetupReps = 3;

std::size_t ScaledRows(std::size_t paper_rows, double scale) {
  const double rows = static_cast<double>(paper_rows) * scale;
  return rows < kMinRows ? kMinRows : static_cast<std::size_t>(rows);
}

// CALMON's discrete domain is intractable beyond this many attributes; the
// paper dropped Credit's least informative attributes for CALMON only, and
// the Fig 10 credit bench does the same (the generators order informative
// features first).
constexpr std::size_t kCalmonMaxAttributes = 22;

// One RunExperiment call of a grid pass.
struct Task {
  std::string name;
  Dataset data;
  FairContext context;
  std::vector<std::string> ids;
  /// The split RunExperiment makes internally, materialized for the traced
  /// per-call replay.
  std::pair<Dataset, Dataset> split;
};

// Generation and the 70/30 split of every dataset, spanned per call.
bool Setup(const Args& args, SpanLog& spans, std::vector<Task>* tasks,
           Outcome& out) {
  tasks->clear();
  const double scale = args.smoke ? kSmokeScale : kScale;
  const std::vector<PopulationConfig> configs = fairbench::AllDatasetConfigs();
  for (std::size_t d = 0; d < configs.size(); ++d) {
    const PopulationConfig& config = configs[d];
    fairbench::Result<Dataset> generated = [&] {
      Span span(spans, "data", "generate/" + config.name);
      return fairbench::GeneratePopulation(
          config, ScaledRows(config.default_rows, scale),
          fairbench::DeriveSeed(args.seed, d));
    }();
    if (!generated.ok()) {
      out.Fail("generate " + config.name + ": " +
               generated.status().ToString());
      return false;
    }
    Task task{config.name, std::move(generated).value(),
              fairbench::MakeContext(config, args.seed),
              fairbench::AllApproachIds(), {}};
    if (task.data.num_features() > kCalmonMaxAttributes) {
      std::vector<std::string> keep;
      for (std::size_t c = 0; c < kCalmonMaxAttributes; ++c) {
        keep.push_back(task.data.schema().column(c).name);
      }
      auto reduced = task.data.SelectColumns(keep);
      if (!reduced.ok()) {
        out.Fail("select columns: " + reduced.status().ToString());
        return false;
      }
      std::erase(task.ids, std::string("calmon"));
      tasks->push_back(std::move(task));
      tasks->push_back(Task{config.name + "/calmon", std::move(reduced).value(),
                            tasks->back().context, {"calmon"}, {}});
    } else {
      tasks->push_back(std::move(task));
    }
  }
  for (Task& task : *tasks) {
    Span span(spans, "data", "split/" + task.name);
    // Same stream RunExperiment uses for its split (stream 0 of run.seed).
    fairbench::Rng rng(fairbench::DeriveSeed(args.seed, 0));
    const fairbench::SplitIndices split = fairbench::TrainTestSplit(
        task.data.num_rows(), ExperimentOptions{}.train_fraction, rng);
    auto parts = fairbench::MaterializeSplit(task.data, split);
    if (!parts.ok()) {
      out.Fail("split " + task.name + ": " + parts.status().ToString());
      return false;
    }
    task.split = std::move(parts).value();
  }
  return true;
}

ExperimentOptions Options(uint64_t seed, std::size_t threads) {
  ExperimentOptions options;
  options.run.seed = seed;
  options.run.threads = threads;
  return options;
}

// One grid pass: RunExperiment on every dataset. Returns false (and records
// why) when the driver itself fails.
bool RunPass(const std::vector<Task>& tasks, const ExperimentOptions& options,
             SpanLog& spans, std::vector<ExperimentResult>* results,
             Outcome& out) {
  results->clear();
  for (const Task& task : tasks) {
    Span span(spans, "exec", "run_experiment/" + task.name);
    auto result = fairbench::RunExperiment(task.data, task.context, task.ids,
                                           options);
    if (!result.ok()) {
      out.Fail("RunExperiment " + task.name + ": " +
               result.status().ToString());
      return false;
    }
    results->push_back(std::move(result).value());
  }
  return true;
}

// Every cell fitted, and every one of the nine metrics finite in [0, 1].
void CheckCells(const std::vector<ExperimentResult>& results, Outcome& out) {
  std::vector<std::string> names = fairbench::CorrectnessMetricNames();
  for (const std::string& m : fairbench::FairnessMetricNames()) {
    names.push_back(m);
  }
  for (const ExperimentResult& r : results) {
    for (const ApproachResult& ar : r.approaches) {
      ++out.attempted;
      if (!ar.ok) {
        ++out.failed;
        out.Fail(r.dataset_name + "/" + ar.id + " failed: " + ar.error);
        continue;
      }
      for (const std::string& m : names) {
        const double v = ar.metrics.MetricByName(m);
        if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
          out.Fail(r.dataset_name + "/" + ar.id + " metric " + m +
                   " out of [0,1]: " + std::to_string(v));
        }
      }
    }
  }
}

std::vector<std::string> Tables(const std::vector<ExperimentResult>& results) {
  std::vector<std::string> tables;
  for (const ExperimentResult& r : results) {
    tables.push_back(fairbench::FormatExperimentTable(r));
  }
  return tables;
}

// The traced run's serial replay of RunExperiment through the public
// per-call API, one span per call. Mirrors the driver's seed schedule
// (split = stream 0, CD of approach i = stream 1 + i) so its table must be
// byte-identical to the driver's. Per-call seconds are summed into `sums`.
ExperimentResult Replay(const Task& task, uint64_t seed, SpanLog& spans,
                        std::map<std::string, double>& sums, Outcome& out) {
  const std::vector<std::string>& ids = task.ids;
  const Dataset& train = task.split.first;
  const Dataset& test = task.split.second;
  const FairContext& context = task.context;
  ExperimentResult result;
  result.dataset_name = task.data.name();
  Span task_span(spans, "core", "replay/" + task.name);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const int64_t cell_start = NowNs();
    Span cell(spans, "core", "cell/" + ids[i]);
    ApproachResult ar;
    auto spec = fairbench::FindApproach(ids[i]);
    auto pipeline = fairbench::MakePipeline(ids[i]);
    if (!spec.ok() || !pipeline.ok()) {
      out.Fail("unknown approach " + ids[i]);
      continue;
    }
    ar.id = spec.value()->id;
    ar.display = spec.value()->display;
    ar.stage = spec.value()->stage;
    ar.target_metrics = spec.value()->target_metrics;

    int64_t t0 = NowNs();
    fairbench::Status fit_status = [&] {
      Span span(spans, "core", "fit/" + ids[i]);
      return pipeline->Fit(train, context);
    }();
    const double fit_s = static_cast<double>(NowNs() - t0) * 1e-9;
    sums["core.fit_s"] += fit_s;
    sums["fit_s." + ids[i]] += fit_s;
    if (!fit_status.ok()) {
      ar.error = fit_status.ToString();
      result.approaches.push_back(std::move(ar));
      continue;
    }
    ar.timing = pipeline->timing();
    sums["fair.pre_s"] += ar.timing.pre_seconds;
    sums["core.train_s"] += ar.timing.train_seconds;
    sums["fair.post_s"] += ar.timing.post_seconds;

    t0 = NowNs();
    auto pred = [&] {
      Span span(spans, "core", "predict/" + ids[i]);
      return pipeline->Predict(test);
    }();
    ar.predict_seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    sums["core.predict_s"] += ar.predict_seconds;
    if (!pred.ok()) {
      ar.error = pred.status().ToString();
      result.approaches.push_back(std::move(ar));
      continue;
    }

    // The driver computes CD inside ComputeMetricsReport; the replay calls
    // the report without a predictor and CausalDiscrimination separately
    // so the two costs show apart, then folds CD back in the same way.
    fairbench::CdOptions cd;
    cd.seed = fairbench::DeriveSeed(seed, 1 + i);
    t0 = NowNs();
    auto report = [&] {
      Span span(spans, "metrics", "report/" + ids[i]);
      return fairbench::ComputeMetricsReport(test, pred.value(),
                                             fairbench::RowPredictor{},
                                             context.resolving_attributes, cd);
    }();
    sums["metrics.report_s"] += static_cast<double>(NowNs() - t0) * 1e-9;
    t0 = NowNs();
    auto cd_value = [&] {
      Span span(spans, "metrics", "cd/" + ids[i]);
      return fairbench::CausalDiscrimination(
          test, pipeline->MakeRowPredictor(test), cd);
    }();
    sums["metrics.cd_s"] += static_cast<double>(NowNs() - t0) * 1e-9;
    if (!report.ok() || !cd_value.ok()) {
      ar.error = !report.ok() ? report.status().ToString()
                              : cd_value.status().ToString();
      result.approaches.push_back(std::move(ar));
      continue;
    }
    ar.metrics = std::move(report).value();
    ar.metrics.cd = cd_value.value();
    ar.metrics.cd_score = fairbench::NormalizeCd(ar.metrics.cd);
    ar.ok = true;
    result.approaches.push_back(std::move(ar));
    sums["cell_s"] += static_cast<double>(NowNs() - cell_start) * 1e-9;
  }
  return result;
}

// Traced run: the serial driver as reference, the traced per-call replay,
// then one nproc-thread driver pass for the exec-layer counters.
void TracedBody(const Args& args, SpanLog& spans, double* wall_ratio,
                Outcome& out) {
  const std::vector<std::string> ids = fairbench::AllApproachIds();
  const std::size_t threads = Nproc();
  std::vector<Task> tasks;
  {
    Span span(spans, "bench", "setup");
    if (!Setup(args, spans, &tasks, out)) return;
  }

  std::vector<ExperimentResult> serial;
  int64_t t0 = NowNs();
  if (!RunPass(tasks, Options(args.seed, 1), spans, &serial, out)) return;
  const double serial_s = static_cast<double>(NowNs() - t0) * 1e-9;
  CheckCells(serial, out);

  fairbench::obs::MetricsRegistry::Global().ResetAll();
  fairbench::obs::SetMetricsEnabled(true);
  std::map<std::string, double> sums;
  std::vector<ExperimentResult> replay;
  t0 = NowNs();
  for (const Task& task : tasks) {
    replay.push_back(Replay(task, args.seed, spans, sums, out));
  }
  *wall_ratio = static_cast<double>(NowNs() - t0) * 1e-9 / serial_s;
  CheckCells(replay, out);
  if (Tables(replay) != Tables(serial)) {
    out.Fail("per-call replay table differs from FormatExperimentTable("
             "RunExperiment(...))");
  }
  const double optim_iterations = RegistryCounter("optim.gd.iterations") +
                                  RegistryCounter("optim.penalty.iterations") +
                                  RegistryCounter("optim.cg_newton.iterations");
  const double sat_conflicts = RegistryCounter("optim.sat.conflicts");
  const double lp_warm_hits = RegistryCounter("optim.lp.warm_start_hits");
  const double flops = RegistryLinalgFlops();

  fairbench::obs::MetricsRegistry::Global().ResetAll();
  std::vector<ExperimentResult> parallel;
  t0 = NowNs();
  const bool parallel_ok =
      RunPass(tasks, Options(args.seed, threads), spans, &parallel, out);
  const double parallel_s = static_cast<double>(NowNs() - t0) * 1e-9;
  const double queue_wait_s =
      RegistryHistogramSum("exec.pool.queue_wait_us") * 1e-6;
  fairbench::obs::SetMetricsEnabled(false);
  if (!parallel_ok) return;
  CheckCells(parallel, out);
  if (Tables(parallel) != Tables(serial)) {
    out.Fail("nproc-thread RunExperiment table differs from the serial one");
  }

  double generate_s = 0.0, split_s = 0.0;
  for (const SpanRecord& s : spans.Snapshot()) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.name.rfind("generate/", 0) == 0) generate_s += dur;
    if (s.name.rfind("split/", 0) == 0) split_s += dur;
  }
  out.Add("data.generate_s", generate_s, "s");
  out.Add("data.split_s", split_s, "s");
  for (const char* key : {"core.fit_s", "fair.pre_s", "core.train_s",
                          "fair.post_s", "core.predict_s", "metrics.report_s",
                          "metrics.cd_s"}) {
    out.Add(key, sums[key], "s");
  }
  for (const std::string& id : ids) {
    out.Add("fit_s." + id, sums["fit_s." + id], "s");
  }
  out.Add("optim.iterations", optim_iterations, "count");
  out.Add("optim.sat.conflicts", sat_conflicts, "count");
  out.Add("optim.lp.warm_start_hits", lp_warm_hits, "count");
  out.Add("linalg.flops", flops, "count");
  out.Add("exec.queue_wait_s", queue_wait_s, "s");
  out.Add("exec.parallel_efficiency",
          sums["cell_s"] / (parallel_s * static_cast<double>(threads)),
          "ratio");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");
}

// Untraced run: set-up (generation, split, first-touch pass) several
// times, then timed passes until time is up.
Outcome RunTimed(const Args& args, SpanLog& spans) {
  Outcome out;
  std::vector<Task> tasks;
  std::vector<double> setup_s;
  const ExperimentOptions options = Options(args.seed, Nproc());
  std::vector<ExperimentResult> reference;
  std::vector<std::string> reference_tables;
  for (int rep = 0; rep < (args.smoke ? 1 : kSetupReps); ++rep) {
    // The untimed first pass does first touch and fixes the reference
    // tables every later pass must reproduce.
    const int64_t t0 = NowNs();
    if (!Setup(args, spans, &tasks, out) ||
        !RunPass(tasks, options, spans, &reference, out)) {
      return out;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    CheckCells(reference, out);
    if (rep == 0) reference_tables = Tables(reference);
    if (Tables(reference) != reference_tables) {
      out.Fail("a repeated set-up's tables differ from the first one's");
    }
  }
  std::vector<double> accuracy, fairness;
  for (const ExperimentResult& r : reference) {
    for (const ApproachResult& ar : r.approaches) {
      if (!ar.ok) continue;
      accuracy.push_back(ar.metrics.correctness.accuracy);
      double sum = 0.0;
      for (const std::string& m : fairbench::FairnessMetricNames()) {
        sum += ar.metrics.MetricByName(m);
      }
      fairness.push_back(sum / 5.0);
    }
  }

  std::vector<double> walls;
  std::size_t cells = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    std::vector<ExperimentResult> results;
    const int64_t t0 = NowNs();
    if (!RunPass(tasks, options, spans, &results, out)) return out;
    walls.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    CheckCells(results, out);
    if (Tables(results) != reference_tables) {
      out.Fail("a timed pass's tables differ from the first pass's");
    }
    for (const ExperimentResult& r : results) cells += r.approaches.size();
  } while (!args.smoke && NowNs() < deadline);

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("wall_s", Median(walls), "s");
  out.Add("accuracy_mean", Mean(accuracy), "ratio");
  out.Add("fairness_mean", Mean(fairness), "ratio");
  // A "request" of the grid is one whole pass: the batch job a user waits
  // for. Not a cell: the median cell is a cheap fit whose time follows
  // contention from the heavy cells beside it. Not one dataset's
  // experiment: German and COMPAS take about the same time, so their
  // order, and the median with it, changes with the seed.
  out.Add("p50_ms", Quantile(walls, 0.50) * 1e3, "ms");
  out.Add("p90_ms", Quantile(walls, 0.90) * 1e3, "ms");
  // Every pass runs the same cells; the median pass gives the rate.
  out.Add("rps",
          static_cast<double>(cells) / static_cast<double>(walls.size()) /
              Median(walls),
          "1/s");
  return out;
}

}  // namespace

Outcome RunGrid(const Args& args, SpanLog& spans) {
  if (!args.trace) return RunTimed(args, spans);
  Outcome out;
  double wall_ratio = 0.0;
  uint64_t root = 0;
  {
    Span span(spans, "bench", "grid");
    root = span.id();
    TracedBody(args, spans, &wall_ratio, out);
  }
  AddTraceMetrics(spans, root, wall_ratio, out);
  return out;
}

}  // namespace e2e
