#include "obs/telemetry.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/string_util.h"

namespace fairbench::obs {
namespace {

std::atomic<bool> g_events_enabled{false};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string HexId(uint64_t id) {
  return StrFormat("%016llx", static_cast<unsigned long long>(id));
}

/// `serve.latency.ns` → `fairbench_serve_latency_ns`. Prometheus metric
/// names admit [a-zA-Z0-9_:]; everything else becomes '_'.
std::string PromName(const std::string& name) {
  std::string out = "fairbench_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string PromNumber(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.17g", v);
}

void AppendFamilyHeader(std::string* out, const std::string& prom_name,
                        const std::string& original, const char* type) {
  *out += "# HELP " + prom_name + " FairBench metric " + original + "\n";
  *out += "# TYPE " + prom_name + " " + type + "\n";
}

/// Whole-file replace via stdio: the obs layer deliberately does not
/// depend on core/export.h (layering — core sits above obs).
Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const std::size_t written =
      contents.empty()
          ? 0
          : std::fwrite(contents.data(), 1, contents.size(), file);
  const int close_rc = std::fclose(file);
  if (written != contents.size() || close_rc != 0) {
    return Status::IoError("short write: " + path);
  }
  return Status::OK();
}

}  // namespace

bool EventsEnabled() {
  return g_events_enabled.load(std::memory_order_relaxed);
}

void SetEventsEnabled(bool enabled) {
  g_events_enabled.store(enabled, std::memory_order_relaxed);
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();  // never freed
  return *log;
}

EventLog::EventLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void EventLog::Record(RequestEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() == capacity_) {
    entries_.pop_front();
    ++dropped_;
  }
  entries_.emplace_back(std::move(event));
}

void EventLog::Record(AlertEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() == capacity_) {
    entries_.pop_front();
    ++dropped_;
  }
  entries_.emplace_back(std::move(event));
}

std::string EventLog::ToJsonl(const std::string& manifest_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out =
      "{\"type\":\"header\",\"format\":\"fairbench-events-v1\","
      "\"manifest_hash\":" +
      JsonString(manifest_hash);
  if (dropped_ > 0) {
    out += StrFormat(",\"dropped\":%llu",
                     static_cast<unsigned long long>(dropped_));
  }
  out += "}\n";
  for (const Entry& entry : entries_) {
    if (const RequestEvent* e = std::get_if<RequestEvent>(&entry)) {
      out += StrFormat("{\"type\":\"request\",\"ts_ns\":%llu",
                       static_cast<unsigned long long>(e->timestamp_ns));
      out += ",\"request_id\":\"" + HexId(e->request_id) + "\"";
      out += ",\"approach\":" + JsonString(e->approach);
      out += StrFormat(",\"rows\":%llu",
                       static_cast<unsigned long long>(e->rows));
      out += StrFormat(",\"sequence\":%llu",
                       static_cast<unsigned long long>(e->sequence));
      out += ",\"cache\":" + JsonString(e->cache);
      out += StrFormat(",\"total_ns\":%llu",
                       static_cast<unsigned long long>(e->total_ns));
      out += StrFormat(",\"key_ns\":%llu",
                       static_cast<unsigned long long>(e->key_ns));
      out += StrFormat(",\"lookup_ns\":%llu",
                       static_cast<unsigned long long>(e->lookup_ns));
      out += StrFormat(",\"fit_ns\":%llu",
                       static_cast<unsigned long long>(e->fit_ns));
      out += StrFormat(",\"predict_ns\":%llu",
                       static_cast<unsigned long long>(e->predict_ns));
      out += StrFormat(",\"sequence_ns\":%llu",
                       static_cast<unsigned long long>(e->sequence_ns));
      if (e->has_deadline) {
        out += StrFormat(",\"deadline_slack_ns\":%lld",
                         static_cast<long long>(e->deadline_slack_ns));
      } else {
        out += ",\"deadline_slack_ns\":null";
      }
      out += ",\"status\":" + JsonString(e->status) + "}\n";
    } else {
      const AlertEvent& a = std::get<AlertEvent>(entry);
      out += StrFormat("{\"type\":\"alert\",\"ts_ns\":%llu",
                       static_cast<unsigned long long>(a.timestamp_ns));
      out += ",\"begin_request_id\":\"" + HexId(a.begin_request_id) + "\"";
      out += ",\"end_request_id\":\"" + HexId(a.end_request_id) + "\"";
      out += StrFormat(",\"window_index\":%llu",
                       static_cast<unsigned long long>(a.window_index));
      out += ",\"series\":" + JsonString(a.series);
      out += StrFormat(",\"estimate\":%.17g", a.estimate);
      out += StrFormat(",\"baseline\":%.17g", a.baseline);
      out += StrFormat(",\"threshold\":%.17g", a.threshold);
      out += StrFormat(",\"end_sequence\":%llu}\n",
                       static_cast<unsigned long long>(a.end_sequence));
    }
  }
  return out;
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  dropped_ = 0;
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

namespace {

/// MetricsVisitor that deep-copies every metric into a TelemetrySnapshot.
class SnapshotVisitor : public MetricsVisitor {
 public:
  explicit SnapshotVisitor(TelemetrySnapshot* out) : out_(out) {}

  void OnCounter(const std::string& name, const Counter& counter) override {
    out_->counters.push_back({name, counter.value()});
  }
  void OnGauge(const std::string& name, const Gauge& gauge) override {
    out_->gauges.push_back({name, gauge.value(), gauge.max()});
  }
  void OnHistogram(const std::string& name, const Histogram& hist) override {
    TelemetrySnapshot::HistogramSample sample;
    sample.name = name;
    sample.upper_bounds = hist.upper_bounds();
    sample.bucket_counts.reserve(hist.num_buckets());
    for (std::size_t i = 0; i < hist.num_buckets(); ++i) {
      sample.bucket_counts.push_back(hist.bucket_count(i));
    }
    sample.count = hist.count();
    sample.sum = hist.sum();
    out_->histograms.push_back(std::move(sample));
  }
  void OnHdrHistogram(const std::string& name,
                      const HdrHistogram& hist) override {
    out_->hdr_histograms.push_back(
        {name, hist.Snapshot(), hist.relative_error()});
  }

 private:
  TelemetrySnapshot* out_;
};

}  // namespace

TelemetrySnapshot CaptureTelemetry(const MetricsRegistry& registry) {
  TelemetrySnapshot snapshot;
  SnapshotVisitor visitor(&snapshot);
  registry.Visit(visitor);
  return snapshot;
}

TelemetrySnapshot CaptureTelemetry() {
  return CaptureTelemetry(MetricsRegistry::Global());
}

std::string PrometheusText(const TelemetrySnapshot& snapshot,
                           const std::string& manifest_hash) {
  std::string out = "# FairBench telemetry, Prometheus text format 0.0.4\n";
  out += "# manifest_hash " + manifest_hash + "\n";
  for (const TelemetrySnapshot::CounterSample& c : snapshot.counters) {
    const std::string name = PromName(c.name);
    AppendFamilyHeader(&out, name, c.name, "counter");
    out += name +
           StrFormat(" %llu\n", static_cast<unsigned long long>(c.value));
  }
  for (const TelemetrySnapshot::GaugeSample& g : snapshot.gauges) {
    const std::string name = PromName(g.name);
    AppendFamilyHeader(&out, name, g.name, "gauge");
    out += name + " " + PromNumber(g.value) + "\n";
    AppendFamilyHeader(&out, name + "_max", g.name + " running max", "gauge");
    out += name + "_max " + PromNumber(g.max) + "\n";
  }
  for (const TelemetrySnapshot::HistogramSample& h : snapshot.histograms) {
    const std::string name = PromName(h.name);
    AppendFamilyHeader(&out, name, h.name, "histogram");
    uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
      cumulative += i < h.bucket_counts.size() ? h.bucket_counts[i] : 0;
      out += name + "_bucket{le=\"" + PromNumber(h.upper_bounds[i]) + "\"}" +
             StrFormat(" %llu\n", static_cast<unsigned long long>(cumulative));
    }
    out += name + "_bucket{le=\"+Inf\"}" +
           StrFormat(" %llu\n", static_cast<unsigned long long>(h.count));
    out += name + "_sum " + PromNumber(h.sum) + "\n";
    out += name +
           StrFormat("_count %llu\n", static_cast<unsigned long long>(h.count));
  }
  for (const TelemetrySnapshot::HdrSample& h : snapshot.hdr_histograms) {
    const std::string name = PromName(h.name);
    const HdrSnapshot& s = h.snapshot;
    AppendFamilyHeader(&out, name, h.name, "summary");
    out += name + "{quantile=\"0.5\"} " + PromNumber(s.p50) + "\n";
    out += name + "{quantile=\"0.9\"} " + PromNumber(s.p90) + "\n";
    out += name + "{quantile=\"0.95\"} " + PromNumber(s.p95) + "\n";
    out += name + "{quantile=\"0.99\"} " + PromNumber(s.p99) + "\n";
    out += name + "{quantile=\"0.999\"} " + PromNumber(s.p999) + "\n";
    out += name +
           StrFormat("_sum %llu\n", static_cast<unsigned long long>(s.sum));
    out += name +
           StrFormat("_count %llu\n", static_cast<unsigned long long>(s.count));
    AppendFamilyHeader(&out, name + "_min", h.name + " minimum", "gauge");
    out += name + StrFormat("_min %llu\n",
                            static_cast<unsigned long long>(s.min));
    AppendFamilyHeader(&out, name + "_max", h.name + " maximum", "gauge");
    out += name + StrFormat("_max %llu\n",
                            static_cast<unsigned long long>(s.max));
    // Exemplars: the 0.0.4 text format has no native exemplar syntax
    // (OpenMetrics does); comment lines keep them greppable without
    // breaking standard parsers.
    for (const HdrExemplar& exemplar : s.exemplars) {
      out += "# exemplar " + name +
             StrFormat(" value=%llu request_id=",
                       static_cast<unsigned long long>(exemplar.value)) +
             HexId(exemplar.request_id) + "\n";
    }
  }
  return out;
}

namespace {

bool IsPromNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsPromNameChar(char c) {
  return IsPromNameStart(c) || (c >= '0' && c <= '9');
}

bool ParsePromValue(const std::string& token) {
  if (token.empty()) return false;
  if (token == "+Inf" || token == "-Inf" || token == "Inf" || token == "NaN") {
    return true;
  }
  char* end = nullptr;
  std::strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0' && end != token.c_str();
}

}  // namespace

Status ValidatePrometheusText(const std::string& text) {
  std::set<std::string> histogram_families;
  std::set<std::string> inf_buckets;
  std::set<std::string> sums;
  std::set<std::string> counts;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <name> <type>" — remember histogram families for the
      // completeness check below; other comments are free-form.
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t space = rest.find(' ');
        if (space == std::string::npos) {
          return Status::InvalidArgument(
              StrFormat("line %zu: malformed TYPE comment", line_no));
        }
        const std::string family = rest.substr(0, space);
        const std::string type = rest.substr(space + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return Status::InvalidArgument(
              StrFormat("line %zu: unknown metric type '%s'", line_no,
                        type.c_str()));
        }
        if (type == "histogram") histogram_families.insert(family);
      }
      continue;
    }
    // Sample line: name[{labels}] value
    std::size_t i = 0;
    if (!IsPromNameStart(line[0])) {
      return Status::InvalidArgument(
          StrFormat("line %zu: invalid metric name start", line_no));
    }
    while (i < line.size() && IsPromNameChar(line[i])) ++i;
    const std::string name = line.substr(0, i);
    std::string labels;
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) {
        return Status::InvalidArgument(
            StrFormat("line %zu: unterminated label set", line_no));
      }
      labels = line.substr(i + 1, close - i - 1);
      // Light label grammar: name="value" pairs, comma-separated.
      std::size_t lp = 0;
      while (lp < labels.size()) {
        std::size_t eq = labels.find('=', lp);
        if (eq == std::string::npos || eq + 1 >= labels.size() ||
            labels[eq + 1] != '"') {
          return Status::InvalidArgument(
              StrFormat("line %zu: malformed label pair", line_no));
        }
        const std::size_t endq = labels.find('"', eq + 2);
        if (endq == std::string::npos) {
          return Status::InvalidArgument(
              StrFormat("line %zu: unterminated label value", line_no));
        }
        lp = endq + 1;
        if (lp < labels.size()) {
          if (labels[lp] != ',') {
            return Status::InvalidArgument(
                StrFormat("line %zu: expected ',' between labels", line_no));
          }
          ++lp;
        }
      }
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected space before value", line_no));
    }
    const std::string value = line.substr(i + 1);
    if (!ParsePromValue(value)) {
      return Status::InvalidArgument(
          StrFormat("line %zu: unparsable sample value '%s'", line_no,
                    value.c_str()));
    }
    // Track histogram completeness.
    const auto strip_suffix = [&name](const char* suffix) -> std::string {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        return name.substr(0, name.size() - s.size());
      }
      return "";
    };
    const std::string bucket_family = strip_suffix("_bucket");
    if (!bucket_family.empty() &&
        labels.find("le=\"+Inf\"") != std::string::npos) {
      inf_buckets.insert(bucket_family);
    }
    const std::string sum_family = strip_suffix("_sum");
    if (!sum_family.empty()) sums.insert(sum_family);
    const std::string count_family = strip_suffix("_count");
    if (!count_family.empty()) counts.insert(count_family);
  }
  for (const std::string& family : histogram_families) {
    if (inf_buckets.count(family) == 0) {
      return Status::InvalidArgument("histogram family '" + family +
                                     "' has no +Inf bucket");
    }
    if (sums.count(family) == 0 || counts.count(family) == 0) {
      return Status::InvalidArgument("histogram family '" + family +
                                     "' missing _sum or _count");
    }
  }
  return Status::OK();
}

SnapshotScraper::SnapshotScraper(Options options)
    : options_(std::move(options)) {
  if (options_.interval_ms == 0) options_.interval_ms = 1;
}

SnapshotScraper::~SnapshotScraper() { Stop(); }

Status SnapshotScraper::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return Status::FailedPrecondition("scraper already running");
  }
  stop_ = false;
  running_ = true;
  thread_ = std::thread(&SnapshotScraper::Run, this);
  return Status::OK();
}

void SnapshotScraper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  FlushNow();  // final flush so the files reflect the complete run
}

Status SnapshotScraper::FlushNow() {
  if (!options_.prom_path.empty()) {
    const std::string prom =
        PrometheusText(CaptureTelemetry(), options_.manifest_hash);
    FAIRBENCH_RETURN_NOT_OK(WriteFile(options_.prom_path, prom));
  }
  if (!options_.events_path.empty()) {
    FAIRBENCH_RETURN_NOT_OK(WriteFile(
        options_.events_path,
        EventLog::Global().ToJsonl(options_.manifest_hash)));
  }
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void SnapshotScraper::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    FlushNow();  // failures are transient (scrape model): retry next tick
    lock.lock();
  }
}

}  // namespace fairbench::obs
