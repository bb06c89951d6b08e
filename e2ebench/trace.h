// In-memory span recorder of the traced run. Spans are recorded from the
// benchmark's own code around each call into the library; nothing inside
// the library is instrumented by it.
#ifndef FAIRBENCH_E2EBENCH_TRACE_H_
#define FAIRBENCH_E2EBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/// Nanoseconds on the steady clock.
int64_t NowNs();

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;      ///< 0 for a root span.
  std::string layer;        ///< data, core, metrics, exec, serve, ...
  std::string name;
  uint64_t request_id = 0;  ///< 0 outside a request.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe span store. Disabled logs record nothing and hand out id 0,
/// so the untraced run pays one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns recording on or off (the traced run alternates traced and
  /// untraced passes to measure the tracing overhead).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(SpanRecord record);

  std::vector<SpanRecord> Snapshot() const;

  /// Per layer: sum over its spans of duration minus the part of the span
  /// its children cover, in seconds.
  std::map<std::string, double> SelfSeconds() const;

  /// Duration of span `id` minus the union of its direct children, in
  /// seconds: wall time no recorded call accounts for.
  double ResidualSeconds(uint64_t id) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. The parent defaults to the innermost open span of the
/// calling thread; pass `parent` explicitly for work handed to another
/// thread. `start_ns` lets a span begin at a scheduled time in the past.
class Span {
 public:
  Span(SpanLog& log, const char* layer, std::string name,
       uint64_t request_id = 0, uint64_t parent = kInherit,
       int64_t start_ns = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }

  static constexpr uint64_t kInherit = ~uint64_t{0};

 private:
  SpanLog& log_;
  bool active_;
  uint64_t saved_current_ = 0;
  SpanRecord record_;
};

}  // namespace e2e

#endif  // FAIRBENCH_E2EBENCH_TRACE_H_
