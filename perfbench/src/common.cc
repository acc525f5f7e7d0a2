#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "util/resource.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::EndToEnd(const std::string& name, const std::string& unit,
                      double value) {
  end_to_end_.push_back({name, unit, value});
}

void Report::Layer(const std::string& name, const std::string& unit,
                   double value) {
  layers_.push_back({name, unit, value});
}

void Report::Absorb(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  mismatches_ += other.mismatches_;
  for (const Metric& metric : other.layers_) {
    const bool known =
        std::any_of(layers_.begin(), layers_.end(),
                    [&](const Metric& own) { return own.name == metric.name; });
    if (!known) layers_.push_back(metric);
  }
}

void Report::Mismatch(const std::string& what) {
  // The first few are enough to diagnose; a systematic mismatch would
  // otherwise flood stderr once per operation.
  if (mismatches_.fetch_add(1) < 5) {
    std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  }
}

void Report::Failed(const std::string& what) {
  if (failed_.fetch_add(1) < 5) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void ReportLanes(Report& report, const std::vector<double>& primary_ms,
                 const std::vector<double>& secondary_ms) {
  report.EndToEnd("primary_p50_ms", "ms", Quantile(primary_ms, 0.5));
  report.EndToEnd("secondary_p90_ms", "ms", Quantile(secondary_ms, 0.9));
  report.EndToEnd("peak_rss_mb", "MB", PeakRssMb());
}

void ReportLaneOverheads(Report& report,
                         const std::vector<double>& primary_ms_traced,
                         const std::vector<double>& primary_ms,
                         const std::vector<double>& secondary_ms_traced,
                         const std::vector<double>& secondary_ms) {
  report.Layer("trace.overhead.primary_p50_ms", "ms",
               Quantile(primary_ms_traced, 0.5) - Quantile(primary_ms, 0.5));
  report.Layer("trace.overhead.secondary_p90_ms", "ms",
               Quantile(secondary_ms_traced, 0.9) -
                   Quantile(secondary_ms, 0.9));
}

std::vector<hsgf::graph::NodeId> Stratified(
    const std::vector<hsgf::graph::NodeId>& candidates, int count,
    hsgf::util::Rng& rng) {
  std::vector<hsgf::graph::NodeId> picks;
  const size_t n = candidates.size();
  const size_t strata = std::min(n, static_cast<size_t>(count));
  for (size_t i = 0; i < strata; ++i) {
    const size_t lo = i * n / strata;
    const size_t hi = std::max(lo + 1, (i + 1) * n / strata);
    picks.push_back(candidates[lo + rng.UniformInt(hi - lo)]);
  }
  return picks;
}

double PeakRssMb() {
  return static_cast<double>(hsgf::util::PeakRssBytes()) / (1024.0 * 1024.0);
}

unsigned AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench

namespace perfbench {

unsigned OnlineCpus() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<unsigned>(online) : AvailableCpus();
}

}  // namespace perfbench
