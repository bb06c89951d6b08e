#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators/population.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "serve/scoring_service.h"

namespace fairbench::obs {
namespace {

/// Builds a registry snapshot with one metric of every kind.
TelemetrySnapshot MakeSampleSnapshot() {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests.total").Add(42);
  registry.GetGauge("exec.pool.queue_depth").Set(3.5);
  registry.GetHistogram("core.fit.ms", {1.0, 10.0, 100.0}).Record(12.0);
  HdrHistogram& hdr = registry.GetHdrHistogram("serve.latency.ns");
  hdr.RecordWithExemplar(50000, 0xdeadbeefcafef00dull);
  hdr.RecordWithExemplar(2000000, 0x1234567890abcdefull);
  return CaptureTelemetry(registry);
}

TEST(TelemetryTest, CaptureSeesEveryMetricKind) {
  const TelemetrySnapshot snap = MakeSampleSnapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "serve.requests.total");
  EXPECT_EQ(snap.counters[0].value, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 3.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  ASSERT_EQ(snap.hdr_histograms.size(), 1u);
  EXPECT_EQ(snap.hdr_histograms[0].snapshot.count, 2u);
  EXPECT_EQ(snap.hdr_histograms[0].snapshot.exemplars.size(), 2u);
}

TEST(TelemetryTest, PrometheusTextPassesItsOwnValidator) {
  const std::string text = PrometheusText(MakeSampleSnapshot(), "abc123");
  const Status valid = ValidatePrometheusText(text);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << text;
}

TEST(TelemetryTest, PrometheusTextHasTheExpectedShape) {
  const std::string text = PrometheusText(MakeSampleSnapshot(), "abc123");
  // Manifest hash in the header comments.
  EXPECT_NE(text.find("# manifest_hash abc123"), std::string::npos);
  // Names are sanitized and prefixed.
  EXPECT_NE(text.find("fairbench_serve_requests_total 42"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fairbench_serve_requests_total counter"),
            std::string::npos);
  // Fixed-bucket histograms: cumulative buckets + +Inf + _sum/_count.
  EXPECT_NE(text.find("fairbench_core_fit_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fairbench_core_fit_ms_sum"), std::string::npos);
  EXPECT_NE(text.find("fairbench_core_fit_ms_count 1"), std::string::npos);
  // HDR histograms: summary quantiles plus min/max gauges and exemplars.
  EXPECT_NE(text.find("# TYPE fairbench_serve_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("fairbench_serve_latency_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("fairbench_serve_latency_ns_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("request_id=deadbeefcafef00d"), std::string::npos);
}

TEST(TelemetryTest, ValidatorRejectsMalformedText) {
  // Every one of these violates a different rule the validator enforces.
  const char* bad[] = {
      "fairbench_ok 1\n}garbage name{ 2\n",           // bad name charset
      "fairbench_x{le=\"0.5\" 1\n",                   // unclosed label set
      "fairbench_x 1.2.3\n",                          // unparseable value
      "# TYPE fairbench_h histogram\nfairbench_h_bucket{le=\"1\"} 1\n",
      // histogram family without +Inf/_sum/_count ^
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ValidatePrometheusText(text).ok()) << text;
  }
  // And the empty exposition is fine (no metrics yet).
  EXPECT_TRUE(ValidatePrometheusText("").ok());
}

TEST(TelemetryTest, EventLogRendersBothRecordKinds) {
  EventLog log(16);
  RequestEvent request;
  request.timestamp_ns = 1000;
  request.request_id = 0xabcdef0123456789ull;
  request.approach = "lr";
  request.rows = 64;
  request.sequence = 1;
  request.cache = "miss";
  request.total_ns = 5000;
  request.fit_ns = 3000;
  request.predict_ns = 900;
  request.status = "ok";
  log.Record(request);
  AlertEvent alert;
  alert.timestamp_ns = 2000;
  alert.begin_request_id = request.request_id;
  alert.end_request_id = request.request_id;
  alert.series = "positive_rate";
  alert.estimate = 0.25;
  log.Record(alert);

  const std::string jsonl = log.ToJsonl("deadbeef");
  // Header first, then records in arrival order, ids as 16-hex strings.
  EXPECT_EQ(jsonl.find("{\"type\":\"header\""), 0u);
  EXPECT_NE(jsonl.find("\"manifest_hash\":\"deadbeef\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"request_id\":\"abcdef0123456789\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"begin_request_id\":\"abcdef0123456789\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"series\":\"positive_rate\""), std::string::npos);
  // Exactly three lines: header + request + alert.
  int lines = 0;
  for (const char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 3);
}

TEST(TelemetryTest, EventLogDropsOldestAtCapacity) {
  EventLog log(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    RequestEvent event;
    event.request_id = i;
    event.approach = "lr";
    log.Record(event);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  const std::string jsonl = log.ToJsonl("h");
  // The survivors are the newest four; the header records the drop count.
  EXPECT_NE(jsonl.find("\"dropped\":6"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"request_id\":\"0000000000000006\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"request_id\":\"0000000000000007\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"request_id\":\"000000000000000a\""),
            std::string::npos);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TelemetryTest, ScraperWritesBothFilesAndStops) {
  // Use FlushNow for determinism plus a short Start/Stop cycle for the
  // thread lifecycle; the interval is long so the final flush comes from
  // Stop(), proving shutdown exports whatever the last interval missed.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.ResetAll();
  EventLog::Global().Clear();
  SetMetricsEnabled(true);
  registry.GetCounter("serve.requests.total").Add(7);
  RequestEvent event;
  event.request_id = 0x42;
  event.approach = "lr";
  EventLog::Global().Record(event);

  SnapshotScraper::Options options;
  options.prom_path = ::testing::TempDir() + "/telemetry_test.prom";
  options.events_path = ::testing::TempDir() + "/telemetry_test.jsonl";
  options.manifest_hash = "cafe";
  options.interval_ms = 60000;
  SnapshotScraper scraper(options);
  ASSERT_TRUE(scraper.Start().ok());
  EXPECT_FALSE(scraper.Start().ok());  // double-start refused
  scraper.Stop();
  scraper.Stop();  // idempotent

  std::FILE* prom = std::fopen(options.prom_path.c_str(), "rb");
  ASSERT_NE(prom, nullptr);
  std::string prom_text(1 << 16, '\0');
  prom_text.resize(std::fread(prom_text.data(), 1, prom_text.size(), prom));
  std::fclose(prom);
  EXPECT_TRUE(ValidatePrometheusText(prom_text).ok());
  EXPECT_NE(prom_text.find("manifest_hash cafe"), std::string::npos);
  EXPECT_NE(prom_text.find("fairbench_serve_requests_total 7"),
            std::string::npos);

  std::FILE* events = std::fopen(options.events_path.c_str(), "rb");
  ASSERT_NE(events, nullptr);
  std::string events_text(1 << 16, '\0');
  events_text.resize(
      std::fread(events_text.data(), 1, events_text.size(), events));
  std::fclose(events);
  EXPECT_NE(events_text.find("\"manifest_hash\":\"cafe\""),
            std::string::npos);
  EXPECT_NE(events_text.find("\"request_id\":\"0000000000000042\""),
            std::string::npos);

  SetMetricsEnabled(false);
  registry.ResetAll();
  EventLog::Global().Clear();
}

TEST(RequestContextTest, GeneratorIsDeterministicAndNeverZero) {
  RequestIdGenerator a(42);
  RequestIdGenerator b(42);
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const RequestContext ctx = a.Next();
    EXPECT_NE(ctx.request_id, 0u);
    EXPECT_EQ(ctx.request_id, b.Next().request_id);  // same seed, same stream
    ids.insert(ctx.request_id);
  }
  EXPECT_EQ(ids.size(), 1000u);  // splitmix64 stream: no collisions here
  RequestIdGenerator other(43);
  EXPECT_NE(other.Next().request_id, RequestIdGenerator(42).Next().request_id);
}

TEST(RequestContextTest, ChildContextKeepsTheRequestId) {
  RequestIdGenerator gen(7);
  const RequestContext root = gen.Next();
  const RequestContext child = ChildContext(root, 1);
  EXPECT_EQ(child.request_id, root.request_id);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
  EXPECT_NE(child.span_id, 0u);
  // Same stage index twice -> same span id (deterministic derivation).
  EXPECT_EQ(ChildContext(root, 1).span_id, child.span_id);
  EXPECT_NE(ChildContext(root, 2).span_id, child.span_id);
}

#if FAIRBENCH_OBS_ENABLED
/// Unsigned integer field `name` of one JSONL record (0 when absent).
uint64_t JsonField(const std::string& line, const std::string& name) {
  const std::string tag = "\"" + name + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + tag.size(), nullptr, 10);
}

TEST(TelemetryTest, RequestStagesSumToTotalForColdAndWarmRequests) {
  MetricsRegistry::Global().ResetAll();
  EventLog::Global().Clear();
  SetMetricsEnabled(true);
  SetEventsEnabled(true);
  {
    Result<Dataset> train = GenerateGerman(300, /*seed=*/11);
    Result<Dataset> data = GenerateGerman(64, /*seed=*/12);
    ASSERT_TRUE(train.ok() && data.ok());
    serve::ScoringService service;
    serve::ScoreRequest request;
    request.approach_id = "lr";
    request.train = &*train;
    request.data = &*data;
    ASSERT_TRUE(service.Score(request).ok());  // Cold: fits.
    ASSERT_TRUE(service.Score(request).ok());  // Warm: memoized key, hit.
  }
  SetEventsEnabled(false);
  SetMetricsEnabled(false);

  std::vector<std::string> requests;
  std::istringstream jsonl(EventLog::Global().ToJsonl("h"));
  for (std::string line; std::getline(jsonl, line);) {
    if (line.find("\"type\":\"request\"") != std::string::npos) {
      requests.push_back(line);
    }
  }
  ASSERT_EQ(requests.size(), 2u);
  // Only the admission check (an atomic add and a gauge) runs outside the
  // five stages of a synchronous Score; allow sanitizer-sized slack.
  constexpr uint64_t kOutsideStagesNs = 50000;
  for (const std::string& line : requests) {
    SCOPED_TRACE(line);
    const uint64_t total = JsonField(line, "total_ns");
    const uint64_t sum =
        JsonField(line, "key_ns") + JsonField(line, "lookup_ns") +
        JsonField(line, "fit_ns") + JsonField(line, "predict_ns") +
        JsonField(line, "sequence_ns");
    EXPECT_GT(JsonField(line, "key_ns"), 0u);
    EXPECT_GT(JsonField(line, "predict_ns"), 0u);
    EXPECT_LE(sum, total);
    EXPECT_LE(total - sum, kOutsideStagesNs);
  }
  EXPECT_NE(requests[0].find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_GT(JsonField(requests[0], "fit_ns"), 0u);
  EXPECT_NE(requests[1].find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_EQ(JsonField(requests[1], "fit_ns"), 0u);

  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetHdrHistogram("serve.key.ns").Snapshot().count, 2u);
  EXPECT_EQ(registry.GetHdrHistogram("serve.lookup.ns").Snapshot().count, 2u);
  registry.ResetAll();
  EventLog::Global().Clear();
}
#endif  // FAIRBENCH_OBS_ENABLED

}  // namespace
}  // namespace fairbench::obs
