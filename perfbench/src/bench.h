// Shared declarations of the hsgf end-to-end benchmark (perfbench).
//
// Each workload (extract, serve, update) is one process that generates its
// inputs from a seed, drives the library and the in-process daemons through
// their public APIs only, checks every result bit for bit, and reports its
// metrics into a Report. main.cc prints the report as the final JSON line.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "graph/het_graph.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test sizes: every workload finishes in a few seconds.
  bool tiny = false;
  // Self-test: names one correctness gate whose reference the workload
  // perturbs, so that gate must fail the run. Empty for a real run.
  std::string corrupt_reference;
  // Directory for the files a workload writes (snapshots, containers, logs).
  std::string work_dir;
  // Where a traced run writes its spans (JSON lines).
  std::string trace_path;

  bool Corrupts(const char* gate) const { return corrupt_reference == gate; }
};

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
// an empty one.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// What one workload process measured and checked. The accounting calls
// (Attempted, Failed, Mismatch) may come from any thread; metrics are added
// by the workload's main thread.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
  };

  // End-to-end metrics are printed by untraced runs, per-layer metrics by
  // traced ones.
  void EndToEnd(const std::string& name, const std::string& unit,
                double value);
  void Layer(const std::string& name, const std::string& unit, double value);

  // A correctness gate failed: the run is reported as incorrect.
  void Mismatch(const std::string& what);
  // Operation accounting. An operation fails when the system refused or
  // lost it (overload, unavailable shard, deadline, transport error).
  void Attempted(int64_t n = 1) { attempted_.fetch_add(n); }
  void Failed(const std::string& what);

  // Adds another workload's accounting to this report, and those of its
  // per-layer metrics whose names this report does not have yet.
  void Absorb(const Report& other);

  bool correct() const { return mismatches_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::vector<Metric>& layers() const { return layers_; }

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> mismatches_{0};
};

// The end-to-end metrics of every workload (README.md, "End-to-end
// metrics"). Each workload times two kinds of operation, interleaved: a
// primary and a secondary one. It reports the primary's p50 and the
// secondary's p90 (in ms, from untraced operations), its peak resident set,
// and setup_s (SetupTimer). The secondary is the kind with thousands of
// samples a run, so that its p90 has hundreds beyond it.
void ReportLanes(Report& report, const std::vector<double>& primary_ms,
                 const std::vector<double>& secondary_ms);
// The traced run's tracing overhead on those metrics: traced minus untraced.
void ReportLaneOverheads(Report& report,
                         const std::vector<double>& primary_ms_traced,
                         const std::vector<double>& primary_ms,
                         const std::vector<double>& secondary_ms_traced,
                         const std::vector<double>& secondary_ms);

// Times a workload's set-up. setup_s is the median of kSetupsBefore set-ups
// before the timed phase (the last one's state is kept) and kSetupsAfter
// after it, once the kept state is gone: set-ups half a minute apart keep a
// slow spell of the shared host at either end of the run from moving the
// median.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 4;

template <typename State>
class SetupTimer {
 public:
  using Setup = std::function<std::unique_ptr<State>(int repetition)>;
  explicit SetupTimer(Setup setup) : setup_(std::move(setup)) {}

  // Sets up kSetupsBefore times, destroying each state before the next
  // set-up starts; returns the last state, or null if a set-up failed.
  std::unique_ptr<State> Before() { return Repeat(kSetupsBefore); }

  // Destroys the kept state, sets up kSetupsAfter more times and reports
  // setup_s. False if a set-up failed.
  bool After(std::unique_ptr<State> kept, Report& report) {
    kept.reset();
    if (Repeat(kSetupsAfter) == nullptr) return false;
    report.EndToEnd("setup_s", "s", Median(seconds_));
    return true;
  }

 private:
  std::unique_ptr<State> Repeat(int count) {
    std::unique_ptr<State> state;
    for (int r = 0; r < count; ++r) {
      state.reset();
      const Clock::time_point start = Clock::now();
      state = setup_(repetition_++);
      if (state == nullptr) return nullptr;
      seconds_.push_back(SecondsBetween(start, Clock::now()));
    }
    return state;
  }

  Setup setup_;
  int repetition_ = 0;
  std::vector<double> seconds_;
};

// Nodes in descending order of `degree` (ties by id).
template <typename DegreeFn>
std::vector<hsgf::graph::NodeId> ByDegree(hsgf::graph::NodeId num_nodes,
                                          DegreeFn degree) {
  std::vector<hsgf::graph::NodeId> order(static_cast<size_t>(num_nodes));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](hsgf::graph::NodeId a, hsgf::graph::NodeId b) {
                     return degree(a) > degree(b);
                   });
  return order;
}

// One node per stratum of `candidates` (sorted by descending degree):
// `count` equal strata, one random pick from each. Census cost per root is
// heavy-tailed in degree, so a stratified set costs about the same in every
// seed where a plain random one swings by tens of percent.
std::vector<hsgf::graph::NodeId> Stratified(
    const std::vector<hsgf::graph::NodeId>& candidates, int count,
    hsgf::util::Rng& rng);

// How much a module's counter grew between two snapshots of its registry.
inline int64_t CounterDelta(const hsgf::util::MetricsSnapshot& after,
                            const hsgf::util::MetricsSnapshot& before,
                            const std::string& name) {
  return after.Counter(name) - before.Counter(name);
}

// Peak resident set of this process, in MB.
double PeakRssMb();

// CPUs this process may run on: the extractor's thread count.
unsigned AvailableCpus();
// CPUs of the machine: the closed loops' connection count.
unsigned OnlineCpus();

// Each returns false (after printing why) when the workload could not be
// set up; measurement and check results go into the report.
bool RunExtract(const Options& options, Report& report);
bool RunServe(const Options& options, Report& report);
bool RunUpdate(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
