// hsgf_perfbench — one benchmark workload per process.
//
//   hsgf_perfbench --workload extract|serve|update [--seed N] [--seconds S]
//                  [--trace 0|1] [--work-dir DIR] [--trace-out FILE]
//                  [--tiny] [--corrupt-reference GATE]
//
// Prints a provenance line, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics for
// --trace 0, the per-layer metrics (with the tracing overhead) for --trace 1.
// Every workload reports every metric of BENCHMARK.json: the end-to-end ones
// name the workload's own two kinds of operation (bench.h, ReportLanes), and
// a traced run adds, after its own, traced probes of the other workloads on
// tiny inputs, so that the layers off its own path are reported too.
// Exit 0 when every check passed, 1 when a result mismatched (the JSON line
// still says so), 2 on bad flags, 3 when the workload could not be set up.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "simd/dispatch.h"

namespace perfbench {
namespace {

constexpr uint64_t kDefaultSeed = 1;
// How long a traced run's probe of another workload measures.
constexpr double kProbeSeconds = 2.0;

struct Workload {
  const char* name;
  bool (*run)(const Options&, Report&);
  // Runs on one CPU (PinToOneCpu).
  bool pinned;
};
constexpr Workload kWorkloads[] = {{"extract", RunExtract, false},
                                   {"serve", RunServe, true},
                                   {"update", RunUpdate, true}};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// CPUs this process may run on, as a list of ranges ("0-3").
std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
    if (last > cpu) out += '-' + std::to_string(last);
    cpu = last;
  }
  return out;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// serve and update run on one CPU, the last this process may use: their
// microsecond-scale loopback reads otherwise swing with scheduler placement
// (connections still number one per CPU of the machine). extract keeps
// every CPU for the extractor's threads.
bool PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  return false;
}

// The traced probes of every workload but `own`, on tiny inputs, after its
// own traced run: their operations and checks count in `report`, and their
// per-layer metrics fill in the layers off the own workload's path. False
// if a probe could not be set up.
bool RunProbes(const Options& options, const Workload& own, Report& report) {
  bool pinned = own.pinned;
  for (const Workload& workload : kWorkloads) {
    if (&workload == &own) continue;
    if (workload.pinned && !pinned) {
      // Threads started from here on inherit the main thread's CPU.
      pinned = PinToOneCpu();
      if (!pinned) std::fprintf(stderr, "warning: could not pin to one CPU\n");
    }
    Options probe = options;
    probe.workload = workload.name;
    probe.tiny = true;
    probe.seconds = kProbeSeconds;
    probe.corrupt_reference.clear();
    std::string stem = options.trace_path;
    const std::string suffix = ".jsonl";
    if (stem.size() > suffix.size() &&
        stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
      stem.resize(stem.size() - suffix.size());
    }
    probe.trace_path = stem + ".probe-" + workload.name + suffix;
    std::fprintf(stderr, "[probe] %s on tiny inputs\n", workload.name);
    Report probe_report;
    if (!workload.run(probe, probe_report)) return false;
    report.Absorb(probe_report);
  }
  return true;
}

void PrintProvenance(const Options& options) {
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, "
      "\"default_seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"tiny\": %s, \"nproc\": %ld, \"cpu_affinity\": %s, "
      "\"simd_isa\": %s, \"simd_build\": %s, \"build_type\": %s, "
      "\"assertions\": %s, \"compiler\": %s}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(kDefaultSeed),
      Number(options.seconds).c_str(), options.trace ? 1 : 0,
      options.tiny ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(AffinityList()).c_str(),
      JsonString(hsgf::simd::IsaName(hsgf::simd::ActiveIsa())).c_str(),
      PERFBENCH_SIMD_BUILD ? "true" : "false",
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      assertions ? "true" : "false", JsonString(Compiler()).c_str());
}

void PrintResult(const Report& report, bool trace) {
  std::string metrics;
  for (const Report::Metric& metric :
       trace ? report.layers() : report.end_to_end()) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(metric.name) + ": {\"value\": " +
               Number(metric.value) + ", \"unit\": " +
               JsonString(metric.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      report.correct() ? "true" : "false",
      static_cast<long long>(report.attempted()),
      static_cast<long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: hsgf_perfbench --workload "
               "extract|serve|update [--seed N] [--seconds S] [--trace 0|1] "
               "[--work-dir DIR] [--trace-out FILE] [--tiny] "
               "[--corrupt-reference GATE]\n",
               message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.seed = kDefaultSeed;
  options.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (flag == "--tiny") {
      options.tiny = true;
    } else if (!has_value) {
      return Usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      options.workload = argv[++i];
    } else if (flag == "--seed") {
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (flag == "--trace-out") {
      options.trace_path = argv[++i];
    } else if (flag == "--corrupt-reference") {
      options.corrupt_reference = argv[++i];
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.trace_path.empty()) {
    options.trace_path = options.work_dir + "/spans-" + options.workload +
                         "-" + std::to_string(options.seed) + ".jsonl";
  }

  const Workload* own = nullptr;
  for (const Workload& workload : kWorkloads) {
    if (options.workload == workload.name) own = &workload;
  }
  if (own == nullptr) {
    return Usage("--workload must be extract, serve or update");
  }
  if (own->pinned && !PinToOneCpu()) {
    std::fprintf(stderr, "warning: could not pin to one CPU\n");
  }
  PrintProvenance(options);
  std::fflush(stdout);
  Report report;
  const bool ok = own->run(options, report) &&
                  (!options.trace || RunProbes(options, *own, report));
  if (!ok) {
    std::fprintf(stderr, "error: the %s workload could not run\n",
                 options.workload.c_str());
    return 3;
  }
  PrintResult(report, options.trace);
  return report.correct() ? 0 : 1;
}
