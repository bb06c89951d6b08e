#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace e2e {
namespace {

thread_local uint64_t current_span = 0;

// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = lo;
  bool open = false;
  for (auto [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
    if (end <= start) continue;
    if (!open || start > run_end) {
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (open) covered += run_end - run_start;
  return covered;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    int64_t ns = s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    if (it != children.end()) ns -= CoveredNs(it->second, s.start_ns, s.end_ns);
    self[s.layer] += static_cast<double>(std::max<int64_t>(ns, 0)) * 1e-9;
  }
  return self;
}

double SpanLog::ResidualSeconds(uint64_t id) const {
  const std::vector<SpanRecord> spans = Snapshot();
  const SpanRecord* root = nullptr;
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const SpanRecord& s : spans) {
    if (s.id == id) root = &s;
    if (s.parent == id) children.push_back({s.start_ns, s.end_ns});
  }
  if (root == nullptr) return 0.0;
  const int64_t ns = root->end_ns - root->start_ns -
                     CoveredNs(children, root->start_ns, root->end_ns);
  return static_cast<double>(std::max<int64_t>(ns, 0)) * 1e-9;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : Snapshot()) {
    // Names are built from registry ids and fixed strings: no escaping
    // needed beyond what they contain (letters, digits, '_', '/', '.').
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"layer\":\"%s\","
                 "\"name\":\"%s\",\"request_id\":%llu,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.layer.c_str(),
                 s.name.c_str(), static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Span::Span(SpanLog& log, const char* layer, std::string name,
           uint64_t request_id, uint64_t parent, int64_t start_ns)
    : log_(log), active_(log.enabled()) {
  if (!active_) return;
  record_.id = log.NewId();
  record_.parent = parent == kInherit ? current_span : parent;
  record_.layer = layer;
  record_.name = std::move(name);
  record_.request_id = request_id;
  saved_current_ = current_span;
  current_span = record_.id;
  record_.start_ns = start_ns != 0 ? start_ns : NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  current_span = saved_current_;
  log_.Record(std::move(record_));
}

}  // namespace e2e
