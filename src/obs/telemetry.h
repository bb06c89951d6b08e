#ifndef FAIRBENCH_OBS_TELEMETRY_H_
#define FAIRBENCH_OBS_TELEMETRY_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/status.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace fairbench::obs {

/// Runtime gate for per-request event recording (the JSONL pipeline).
/// Separate from SetMetricsEnabled: metrics are cheap aggregates, events
/// are one record per request — a caller may want one without the other.
bool EventsEnabled();
void SetEventsEnabled(bool enabled);

/// One scored request, as exported to the JSONL event log: stage timings,
/// cache outcome, deadline slack, and the request id that links this
/// record to the request's trace spans, histogram exemplars, and any
/// alerts its windows fired.
struct RequestEvent {
  uint64_t timestamp_ns = 0;  ///< NowNanos() at completion.
  uint64_t request_id = 0;
  std::string approach;       ///< Approach id ("lr", "hardt", ...).
  uint64_t rows = 0;          ///< Batch size scored.
  uint64_t sequence = 0;      ///< Service sequence number (0 on failure).
  std::string cache;          ///< "hit", "miss", or "shared" (single-flight
                              ///< waiter behind another fitter).
  uint64_t total_ns = 0;      ///< Admission to response.
  /// Stage split of total_ns. The five stages are consecutive, so
  /// key + lookup + fit + predict + sequence equals total_ns up to the
  /// admission check and, for ScoreAsync, the time queued for a worker.
  uint64_t key_ns = 0;        ///< Request setup + content key (memo load
                              ///< once the training set is fingerprinted).
  uint64_t lookup_ns = 0;     ///< Cache lookup, incl. single-flight wait.
  uint64_t fit_ns = 0;        ///< Model fit, 0 unless this request fitted.
  uint64_t predict_ns = 0;    ///< Batch scoring.
  uint64_t sequence_ns = 0;   ///< Sequence stamp + observer delivery.
  bool has_deadline = false;
  int64_t deadline_slack_ns = 0;  ///< Budget left at completion; negative =
                                  ///< missed. Meaningless if !has_deadline.
  std::string status;             ///< "ok" or the StatusCode name.
};

/// One fired alert, linked back to the request-id range of the window that
/// breached (monitor/alert_policy.h carries the same ids).
struct AlertEvent {
  uint64_t timestamp_ns = 0;
  uint64_t begin_request_id = 0;  ///< Id of the window's oldest event.
  uint64_t end_request_id = 0;    ///< Id of the window's newest event.
  uint64_t window_index = 0;
  std::string series;             ///< monitor series name, e.g. "positive_rate".
  double estimate = 0.0;
  double baseline = 0.0;
  double threshold = 0.0;
  uint64_t end_sequence = 0;
};

/// Process-wide bounded event buffer (drop-oldest). Producers are the
/// serving tier (one RequestEvent per scored batch) and the fairness
/// monitor (one AlertEvent per firing); the consumer is ToJsonl() — the
/// scraper and the bench harness flush it to disk.
///
/// Per-record cost is one mutex acquisition and a deque push; that is fine
/// at request granularity and is additionally gated behind
/// FAIRBENCH_EVENTS_ACTIVE() at every call site.
class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  static EventLog& Global();

  explicit EventLog(std::size_t capacity = kDefaultCapacity);

  void Record(RequestEvent event);
  void Record(AlertEvent event);

  /// Renders the buffered events as JSON Lines, oldest first. The first
  /// line is a header record carrying the manifest hash and, when any
  /// events were dropped, the drop count:
  ///   {"type":"header","format":"fairbench-events-v1","manifest_hash":...}
  /// Request ids are emitted as 16-hex-digit *strings*: they use all 64
  /// bits and JSON numbers only carry 53.
  std::string ToJsonl(const std::string& manifest_hash) const;

  void Clear();
  std::size_t size() const;
  /// Events evicted by the capacity bound since the last Clear().
  uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }

 private:
  using Entry = std::variant<RequestEvent, AlertEvent>;

  mutable std::mutex mu_;
  std::deque<Entry> entries_;
  std::size_t capacity_;
  uint64_t dropped_ = 0;
};

/// Point-in-time copy of every metric in a registry, decoupled from the
/// registry's locks and atomics so exporters can format at leisure.
struct TelemetrySnapshot {
  struct CounterSample {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
    double max = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::vector<double> upper_bounds;
    std::vector<uint64_t> bucket_counts;  ///< upper_bounds.size() + 1.
    uint64_t count = 0;
    double sum = 0.0;
  };
  struct HdrSample {
    std::string name;
    HdrSnapshot snapshot;
    double relative_error = 0.0;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<HdrSample> hdr_histograms;
};

/// Snapshots `registry` (default: the global one) via MetricsRegistry::Visit.
TelemetrySnapshot CaptureTelemetry();
TelemetrySnapshot CaptureTelemetry(const MetricsRegistry& registry);

/// Renders a snapshot in the Prometheus text exposition format 0.0.4.
/// Metric names are sanitized (`serve.latency.ns` →
/// `fairbench_serve_latency_ns`); fixed-bucket histograms become `histogram`
/// families (cumulative `_bucket{le=...}` + `+Inf` + `_sum`/`_count`), HDR
/// histograms become `summary` families (p50/p90/p95/p99/p999 quantiles)
/// plus `_min`/`_max` gauges, with their exemplar request ids on comment
/// lines. The header comments carry the manifest hash.
std::string PrometheusText(const TelemetrySnapshot& snapshot,
                           const std::string& manifest_hash);

/// Structural check of a text exposition: every non-comment line must be
/// `name[{labels}] value`, names must match the Prometheus charset, values
/// must parse (inf/nan included), and every `histogram`-typed family must
/// close with a `+Inf` bucket and carry `_sum`/`_count`. Used by the CI
/// gate and the Python-side check in tools/record_bench.py.
Status ValidatePrometheusText(const std::string& text);

/// Background exporter: every interval, captures the global registry and
/// event log and rewrites the Prometheus text file and/or JSONL event file
/// (whole-file replace, the scrape-endpoint model — not an append log).
/// Empty paths disable the corresponding output.
class SnapshotScraper {
 public:
  struct Options {
    std::string prom_path;      ///< Prometheus text target ("" = off).
    std::string events_path;    ///< JSONL event-log target ("" = off).
    std::string manifest_hash;  ///< Embedded in both export headers.
    uint64_t interval_ms = 1000;
  };

  explicit SnapshotScraper(Options options);
  ~SnapshotScraper();  ///< Stops and joins if still running.

  SnapshotScraper(const SnapshotScraper&) = delete;
  SnapshotScraper& operator=(const SnapshotScraper&) = delete;

  /// Starts the scrape thread. FailedPrecondition if already running.
  Status Start();
  /// Performs a final flush, then stops and joins. Idempotent.
  void Stop();
  /// Synchronous one-shot export of both files (also usable un-Started).
  Status FlushNow();

  /// Completed scrapes (monitoring/test support).
  uint64_t scrapes() const { return scrapes_.load(std::memory_order_relaxed); }

 private:
  void Run();

  Options options_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_ = false;
  std::atomic<uint64_t> scrapes_{0};
};

}  // namespace fairbench::obs

// Event-recording gate for call sites that must *build* an event struct
// (which a do/while macro can't hide): under -DFAIRBENCH_OBS=OFF this is a
// compile-time false, so the whole `if (FAIRBENCH_EVENTS_ACTIVE()) {...}`
// block is dead code and the event types never instantiate.
#if FAIRBENCH_OBS_ENABLED
#define FAIRBENCH_EVENTS_ACTIVE() (::fairbench::obs::EventsEnabled())
#else
#define FAIRBENCH_EVENTS_ACTIVE() (false)
#endif

#endif  // FAIRBENCH_OBS_TELEMETRY_H_
