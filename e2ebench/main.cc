// FairBench end-to-end benchmark.
//
//   e2ebench --workload grid|serve_warm|serve_churn --seed n --seconds s
//            --trace 0|1 [--smoke] [--trace-dir dir]
//
// Prints each metric as "name value unit", then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics of a separate
// traced run (spans written to --trace-dir). Exit code 0 unless the
// arguments are malformed; a failed output check shows as correct=false.
// README.md lists the workloads and the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "core/registry.h"
#include "obs/metrics.h"

namespace e2e {

void Outcome::Fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "check failed: %s\n", why.c_str());
  correct = false;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

// Reads the obs registry without registering anything new.
class RegistryReader : public fairbench::obs::MetricsVisitor {
 public:
  void OnCounter(const std::string& name,
                 const fairbench::obs::Counter& c) override {
    counters[name] = static_cast<double>(c.value());
  }
  void OnHistogram(const std::string& name,
                   const fairbench::obs::Histogram& h) override {
    histogram_sums[name] = h.sum();
  }
  void OnHdrHistogram(const std::string& name,
                      const fairbench::obs::HdrHistogram& h) override {
    hdr_means[name] = h.count() == 0 ? 0.0
                                     : static_cast<double>(h.sum()) /
                                           static_cast<double>(h.count());
  }
  std::map<std::string, double> counters, histogram_sums, hdr_means;
};

RegistryReader ReadRegistry() {
  RegistryReader reader;
  fairbench::obs::MetricsRegistry::Global().Visit(reader);
  return reader;
}

double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

const char* const kSpanLayers[] = {"data",  "core",    "metrics", "exec",
                                   "serve", "monitor", "loadgen"};

}  // namespace

double RegistryCounter(const std::string& name) {
  return Lookup(ReadRegistry().counters, name);
}
double RegistryHistogramSum(const std::string& name) {
  return Lookup(ReadRegistry().histogram_sums, name);
}
double RegistryHdrMean(const std::string& name) {
  return Lookup(ReadRegistry().hdr_means, name);
}

double RegistryLinalgFlops() {
  double flops = 0.0;
  for (const auto& [name, value] : ReadRegistry().counters) {
    if (name.rfind("linalg.", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".flops") == 0) {
      flops += value;
    }
  }
  return flops;
}

void AddTraceMetrics(const SpanLog& spans, uint64_t root, double wall_ratio,
                     Outcome& out) {
  const std::map<std::string, double> self = spans.SelfSeconds();
  for (const char* layer : kSpanLayers) {
    auto it = self.find(layer);
    out.Add(std::string("self_s.") + layer, it == self.end() ? 0.0 : it->second,
            "s");
  }
  out.Add("residual_s", spans.ResidualSeconds(root), "s");
  out.Add("trace.wall_ratio", wall_ratio, "ratio");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* list = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        {"data.generate_s", "s"}, {"data.split_s", "s"},
        {"core.fit_s", "s"},      {"fair.pre_s", "s"},
        {"core.train_s", "s"},    {"fair.post_s", "s"}};
    for (const std::string& id : fairbench::AllApproachIds()) {
      m->push_back({"fit_s." + id, "s"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"core.predict_s", "s"},
        {"metrics.report_s", "s"},
        {"metrics.cd_s", "s"},
        {"optim.iterations", "count"},
        {"optim.sat.conflicts", "count"},
        {"optim.lp.warm_start_hits", "count"},
        {"linalg.flops", "count"},
        {"exec.queue_wait_s", "s"},
        {"exec.parallel_efficiency", "ratio"},
        {"serve.score_ms", "ms"},
        {"serve.fit_ms", "ms"},
        {"serve.predict_ms", "ms"},
        {"serve.unattributed_ms", "ms"}};
    m->insert(m->end(), rest.begin(), rest.end());
    for (const char* stat : {"serve.score_ms", "serve.unattributed_ms",
                             "serve.key_ms"}) {
      for (const char* rows : {"n1000", "n7214", "n20651", "n45222"}) {
        m->push_back({std::string(stat) + "." + rows, "ms"});
      }
    }
    const std::vector<std::pair<std::string, std::string>> tail = {
        {"serve.hit_ratio", "ratio"}, {"serve.rejected", "count"},
        {"serve.swap_ms", "ms"},      {"monitor.drain_ms", "ms"},
        {"monitor.dropped", "count"}, {"loadgen.late_ms", "ms"},
        {"loadgen.p99_ms", "ms"}};
    m->insert(m->end(), tail.begin(), tail.end());
    for (const char* layer : kSpanLayers) {
      m->push_back({std::string("self_s.") + layer, "s"});
    }
    m->push_back({"residual_s", "s"});
    m->push_back({"trace.wall_ratio", "ratio"});
    m->push_back({"peak_rss_mb", "MiB"});
    return m;
  }();
  return *list;
}

namespace {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"setup_s", "s"},       {"wall_s", "s"},         {"accuracy_mean", "ratio"},
      {"fairness_mean", "ratio"}, {"p50_ms", "ms"},    {"p90_ms", "ms"},
      {"rps", "1/s"}};
  return list;
}

[[noreturn]] void Usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload grid|serve_warm|serve_churn "
               "--seed n --seconds s --trace 0|1 [--smoke] [--trace-dir d]\n",
               why, argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--smoke") == 0) {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(argv[0], "missing flag value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage(argv[0], "bad --seed");
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 3600.0) {
        Usage(argv[0], "bad --seconds");
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (value != "0" && value != "1") Usage(argv[0], "bad --trace");
      args.trace = value == "1";
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      args.trace_dir = value;
    } else {
      Usage(argv[0], "unknown flag");
    }
  }
  if (args.workload != "grid" && args.workload != "serve_warm" &&
      args.workload != "serve_churn") {
    Usage(argv[0], "bad --workload");
  }
  if (!have_seed) Usage(argv[0], "--seed is required");
  return args;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Args args = ParseArgs(argc, argv);
  SpanLog spans(args.trace);

  Outcome out;
  if (args.workload == "grid") {
    out = RunGrid(args, spans);
  } else {
    out = RunServe(args, spans, args.workload == "serve_churn");
  }

  // The reported set is fixed per mode: a workload that does not exercise
  // a layer reports 0 for it, and an unknown name is a benchmark bug.
  const auto& expected = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::map<std::string, Metric> by_name;
  for (const Metric& m : out.metrics) {
    const bool known = std::any_of(
        expected.begin(), expected.end(),
        [&](const auto& e) { return e.first == m.name && e.second == m.unit; });
    if (!known || by_name.count(m.name) != 0) {
      std::fprintf(stderr, "internal error: unexpected metric %s [%s]\n",
                   m.name.c_str(), m.unit.c_str());
      return 3;
    }
    by_name[m.name] = m;
  }
  if (!args.trace && by_name.size() != expected.size()) {
    std::fprintf(stderr, "internal error: an end-to-end metric is missing\n");
    return 3;
  }

  if (args.trace) {
    std::string dir = args.trace_dir.empty() ? "." : args.trace_dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!spans.WriteJsonLines(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : expected) {
    auto it = by_name.find(name);
    const double value = it == by_name.end() ? 0.0 : it->second.value;
    std::printf("%-32s %16.6f %s\n", name.c_str(), value, unit.c_str());
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(value) +
            ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
