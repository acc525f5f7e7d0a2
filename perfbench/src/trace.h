// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, request id). Spans are recorded only
// while tracing is on; they wrap the benchmark's own calls into each module
// (the program itself is not instrumented). Every thread appends to its own
// buffer, so recording takes no lock; the buffers are gathered and written
// out once, after the measurement.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root span
  uint64_t request = 0;  // spans of one request share it (0 = none)
  const char* name = "";
  int64_t start_ns = 0;  // steady clock
  int64_t end_ns = 0;
};

// Turns recording on or off for spans opened from now on. Flip it only
// while no span is open on another thread.
void SetTracing(bool on);
bool Tracing();

// Records one span over its lifetime. The parent defaults to the innermost
// span open on this thread; pass one explicitly for work done on another
// thread. With tracing off it records nothing and id() is 0.
class Span {
 public:
  static constexpr uint64_t kInheritParent = ~uint64_t{0};

  explicit Span(const char* name, uint64_t request = 0,
                uint64_t parent = kInheritParent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  uint64_t saved_current_ = 0;
};

// Records a span whose start and end were observed on different threads
// (an open-loop request: sent by one thread, answered on another).
void RecordSpan(const char* name, uint64_t request, int64_t start_ns,
                int64_t end_ns);

// Nanoseconds on the steady clock, the time base of every span.
int64_t SteadyNs(std::chrono::steady_clock::time_point t);

// Every span recorded since the last call, by id; the buffers are emptied,
// so each workload of a process collects only its own spans.
std::vector<SpanRecord> CollectSpans();

// Self time of each span (same order): its duration minus the part of that
// interval covered by its children.
std::vector<double> SelfSeconds(const std::vector<SpanRecord>& spans);

// Writes one JSON object per span. False on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

// Durations (seconds) of every span with this name.
std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
