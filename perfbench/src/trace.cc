#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};

// Per-thread span buffers. A thread registers its buffer on first use; the
// deque keeps every buffer's address stable while others register.
std::mutex g_buffers_mutex;
std::deque<std::vector<SpanRecord>> g_buffers;

thread_local std::vector<SpanRecord>* t_buffer = nullptr;
thread_local uint64_t t_current = 0;

int64_t NowNs() { return SteadyNs(std::chrono::steady_clock::now()); }

std::vector<SpanRecord>& ThreadBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.emplace_back();
    t_buffer = &g_buffers.back();
    t_buffer->reserve(1 << 14);
  }
  return *t_buffer;
}

}  // namespace

int64_t SteadyNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

void RecordSpan(const char* name, uint64_t request, int64_t start_ns,
                int64_t end_ns) {
  if (!Tracing()) return;
  SpanRecord record;
  record.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record.parent = t_current;
  record.request = request;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  ThreadBuffer().push_back(record);
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request, uint64_t parent) {
  if (!Tracing()) return;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = parent == kInheritParent ? t_current : parent;
  record_.request = request;
  record_.name = name;
  saved_current_ = t_current;
  t_current = record_.id;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (record_.id == 0) return;
  record_.end_ns = NowNs();
  t_current = saved_current_;
  ThreadBuffer().push_back(record_);
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (std::vector<SpanRecord>& buffer : g_buffers) {
      spans.insert(spans.end(), buffer.begin(), buffer.end());
      buffer.clear();
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return spans;
}

std::vector<double> SelfSeconds(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Child intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    const auto it = index.find(span.parent);
    if (it == index.end()) continue;
    const SpanRecord& parent = spans[it->second];
    const int64_t start = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) children[it->second].emplace_back(start, end);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    for (const auto& [start, end] : intervals) {
      if (run_end < start) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered) *
              1e-9;
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<double> self = SelfSeconds(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(file,
                 "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"request\":%" PRIu64
                 ",\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"self_s\":%.9f}\n",
                 s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns,
                 self[i]);
  }
  return std::fclose(file) == 0;
}

std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const std::string& name) {
  std::vector<double> seconds;
  for (const SpanRecord& span : spans) {
    if (name == span.name) {
      seconds.push_back(static_cast<double>(span.end_ns - span.start_ns) *
                        1e-9);
    }
  }
  return seconds;
}

}  // namespace perfbench
