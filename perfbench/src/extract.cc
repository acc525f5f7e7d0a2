// extract — the paper's batch path: core::Extractor::Run over a hub-inclusive
// root set of a LOAD-like graph at one thread per CPU, interleaved with a
// directed census of a MAG-like graph one root at a time.
//
// Root sets. Census cost per root is heavy-tailed (it grows with the root's
// degree and with its neighbours' degrees), so a plain random sample makes
// the work of a run swing by tens of percent from seed to seed. The sample
// is therefore stratified (Stratified in bench.h). The undirected set also
// takes the `hubs` highest-degree nodes; their censuses hit the census
// budget (CensusConfig::max_subgraphs) in every seed, which fixes their work
// while leaving each some forty times a median root in time and the
// heaviest about a quarter of a Run at four threads (README.md) — the
// per-root skew and the shared-hub batching a scheduling change must beat.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"
#include "core/directed_census.h"
#include "core/extractor.h"
#include "data/generator.h"
#include "data/schema.h"
#include "graph/digraph.h"
#include "graph/het_graph.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using hsgf::graph::NodeId;

struct Sizes {
  double scale;           // data::LoadLikeSchema scale
  int hubs;               // highest-degree roots, always included
  int roots;              // stratified roots among nodes of degree <= ...
  int root_max_degree;    // ... this
  int emax;
  int dmax;
  int64_t budget;         // CensusConfig::max_subgraphs
  double directed_scale;  // data::MagLikeSchema scale
  int directed_roots;     // stratified over every node by total degree
  int directed_emax;
  int directed_dmax;
  int64_t directed_budget;
};

// Sized so that one Run takes about 1.6 s at four threads and one directed
// pass about a quarter of that (each round runs two), and so that the work
// of a run varies by only a few percent from seed to seed (README.md).
constexpr int kDirectedPassesPerRound = 2;
constexpr Sizes kFull = {8.0, 4, 384, 8, 5, 40, 200'000'000,
                         2.0, 256, 4, 16, 2'000'000};
constexpr Sizes kTiny = {0.25, 2, 24, 8, 4, 40, 1'000'000,
                         0.25, 32, 3, 16, 200'000};

struct State {
  hsgf::graph::HetGraph graph;
  std::vector<NodeId> roots;
  hsgf::core::ExtractorConfig config;
  std::unique_ptr<hsgf::core::Extractor> extractor;

  hsgf::graph::DirectedHetGraph digraph;
  std::vector<NodeId> directed_roots;
  hsgf::core::CensusConfig directed_config;
  std::unique_ptr<hsgf::core::DirectedCensusWorker> directed_worker;
};

std::unique_ptr<State> Setup(const Sizes& sizes, uint64_t seed,
                             unsigned threads, int repetition) {
  Span span("setup", static_cast<uint64_t>(repetition) + 1);
  auto state = std::make_unique<State>();
  {
    Span generate("data.generate");
    state->graph = hsgf::data::MakeNetwork(
        hsgf::data::LoadLikeSchema(sizes.scale), seed);
    state->digraph = hsgf::data::MakeDirectedNetwork(
        hsgf::data::MagLikeSchema(sizes.directed_scale), seed ^ 0x5eedu);
  }
  {
    Span sample("bench.sample_roots");
    hsgf::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
    const hsgf::graph::HetGraph& g = state->graph;
    const std::vector<NodeId> order =
        ByDegree(g.num_nodes(), [&g](NodeId v) { return g.degree(v); });
    std::vector<NodeId> candidates;
    for (size_t i = 0; i < order.size(); ++i) {
      const int degree = g.degree(order[i]);
      if (static_cast<int>(i) < sizes.hubs) {
        state->roots.push_back(order[i]);
      } else if (degree > 0 && degree <= sizes.root_max_degree) {
        candidates.push_back(order[i]);
      }
    }
    const std::vector<NodeId> sampled = Stratified(candidates, sizes.roots, rng);
    state->roots.insert(state->roots.end(), sampled.begin(), sampled.end());

    const hsgf::graph::DirectedHetGraph& d = state->digraph;
    state->directed_roots = Stratified(
        ByDegree(d.num_nodes(), [&d](NodeId v) { return d.total_degree(v); }),
        sizes.directed_roots, rng);
  }
  {
    Span start("core.extractor_start");
    state->config.census.max_edges = sizes.emax;
    state->config.census.max_degree = sizes.dmax;
    state->config.census.max_subgraphs = sizes.budget;
    state->config.num_threads = threads;
    state->extractor =
        std::make_unique<hsgf::core::Extractor>(state->graph, state->config);
    state->directed_config.max_edges = sizes.directed_emax;
    state->directed_config.max_degree = sizes.directed_dmax;
    state->directed_config.max_subgraphs = sizes.directed_budget;
    state->directed_worker = std::make_unique<hsgf::core::DirectedCensusWorker>(
        state->digraph, state->directed_config);
  }
  return state;
}

bool SameFeatures(const hsgf::core::FeatureSet& a,
                  const hsgf::core::FeatureSet& b, std::string* where) {
  if (a.feature_hashes != b.feature_hashes) {
    *where = "feature columns differ";
    return false;
  }
  if (a.matrix.rows() != b.matrix.rows() || a.matrix.cols() != b.matrix.cols()) {
    *where = "matrix shape differs";
    return false;
  }
  const size_t row_bytes = static_cast<size_t>(a.matrix.cols()) * sizeof(double);
  for (int r = 0; r < a.matrix.rows(); ++r) {
    if (std::memcmp(a.matrix.row(r), b.matrix.row(r), row_bytes) != 0) {
      *where = "row " + std::to_string(r) + " differs";
      return false;
    }
  }
  return true;
}

double HistogramSum(const hsgf::util::MetricsSnapshot& snapshot,
                    const std::string& name) {
  const hsgf::util::HistogramSnapshot* h = snapshot.Histogram(name);
  return h != nullptr ? static_cast<double>(h->sum) : 0.0;
}

// Upper bound of the highest histogram bucket that gained observations
// between two snapshots: the longest observation in between, to within one
// log-linear bucket.
double LongestObservation(const hsgf::util::MetricsSnapshot& after,
                          const hsgf::util::MetricsSnapshot& before,
                          const std::string& name) {
  const hsgf::util::HistogramSnapshot* a = after.Histogram(name);
  const hsgf::util::HistogramSnapshot* b = before.Histogram(name);
  if (a == nullptr) return 0.0;
  for (auto it = a->buckets.rbegin(); it != a->buckets.rend(); ++it) {
    int64_t earlier = 0;
    if (b != nullptr) {
      for (const auto& bucket : b->buckets) {
        if (bucket.lower == it->lower) earlier = bucket.count;
      }
    }
    if (it->count > earlier) {
      return static_cast<double>(std::min(it->upper, a->max));
    }
  }
  return 0.0;
}

double SpanTotal(const hsgf::util::MetricsSnapshot& snapshot,
                 const std::string& name) {
  const hsgf::util::SpanSnapshot* s = snapshot.Span(name);
  return s != nullptr ? s->seconds : 0.0;
}

}  // namespace

bool RunExtract(const Options& options, Report& report) {
  const Sizes& sizes = options.tiny ? kTiny : kFull;
  const unsigned threads = AvailableCpus();
  SetTracing(options.trace);

  SetupTimer<State> setups([&](int repetition) {
    return Setup(sizes, options.seed, threads, repetition);
  });
  std::unique_ptr<State> state = setups.Before();
  SetTracing(false);
  const size_t rows = state->roots.size();
  const size_t directed_rows = state->directed_roots.size();
  std::fprintf(stderr,
               "[extract] LOAD-like %d nodes / %lld edges, %zu roots, "
               "%u threads; MAG-like directed %d nodes / %lld arcs, %zu "
               "roots\n",
               state->graph.num_nodes(),
               static_cast<long long>(state->graph.num_edges()), rows, threads,
               state->digraph.num_nodes(),
               static_cast<long long>(state->digraph.num_arcs()),
               directed_rows);

  // Reference rows: the same roots without multi-root batching, so the
  // timed runs are checked against a different schedule of the same work.
  hsgf::core::ExtractorConfig reference_config = state->config;
  reference_config.batch_roots = false;
  hsgf::core::FeatureSet reference;
  {
    hsgf::core::Extractor reference_extractor(state->graph, reference_config);
    reference = reference_extractor.Run(state->roots).features;
  }
  std::vector<hsgf::core::CensusResult> directed_reference(directed_rows);
  for (size_t i = 0; i < directed_rows; ++i) {
    hsgf::core::DirectedCensusWorker fresh(state->digraph,
                                           state->directed_config);
    fresh.Run(state->directed_roots[i], directed_reference[i]);
  }
  if (options.Corrupts("rows")) reference.matrix(0, 0) += 1.0;
  if (options.Corrupts("directed")) directed_reference[0].counts.Add(1, 1);

  // Untimed first Run: fills caches and pools and fixes the per-row counts
  // that every later Run must repeat.
  hsgf::core::Extractor& extractor = *state->extractor;
  const hsgf::util::MetricsSnapshot before_first = extractor.metrics().Snapshot();
  const hsgf::core::ExtractionResult first = extractor.Run(state->roots);
  const hsgf::util::MetricsSnapshot after_first = extractor.metrics().Snapshot();
  std::string where;
  if (!SameFeatures(first.features, reference, &where)) {
    report.Mismatch("extract: first run vs unbatched reference: " + where);
  }

  std::vector<double> run_s[2];       // [traced]
  std::vector<double> directed_s[2];  // [traced]
  std::vector<double> directed_root_ms[2];  // [traced]
  std::vector<double> efficiency;
  std::vector<double> max_root_share;
  std::vector<hsgf::core::CensusResult> directed(directed_rows);
  const Clock::time_point end = After(options.seconds);
  for (uint64_t round = 1; Clock::now() < end || run_s[0].empty(); ++round) {
    // Traced runs alternate traced and untraced rounds: the difference is
    // the tracing overhead.
    const bool traced = options.trace && round % 2 == 1;
    SetTracing(traced);
    Span round_span("extract.round", round);

    const hsgf::util::MetricsSnapshot before =
        traced ? extractor.metrics().Snapshot() : hsgf::util::MetricsSnapshot{};
    report.Attempted();
    Clock::time_point start = Clock::now();
    hsgf::core::ExtractionResult result;
    {
      Span run_span("core.extractor_run", round);
      result = extractor.Run(state->roots);
    }
    run_s[traced].push_back(SecondsBetween(start, Clock::now()));
    if (traced) {
      const hsgf::util::MetricsSnapshot after = extractor.metrics().Snapshot();
      const double span = SpanTotal(after, "extract.census") -
                          SpanTotal(before, "extract.census");
      max_root_share.push_back(
          LongestObservation(after, before, "census.node_micros") * 1e-6 /
          span);
      efficiency.push_back(
          (HistogramSum(after, "census.node_micros") -
           HistogramSum(before, "census.node_micros")) *
          1e-6 / (threads * span));
    }
    if (result.stopped_early) report.Failed("extract: run stopped early");
    if (!SameFeatures(result.features, reference, &where)) {
      report.Mismatch("extract: round " + std::to_string(round) + ": " + where);
    }

    for (int pass = 0; pass < kDirectedPassesPerRound; ++pass) {
      report.Attempted(static_cast<int64_t>(directed_rows));
      start = Clock::now();
      {
        Span pass_span("core.directed_pass", round);
        for (size_t i = 0; i < directed_rows; ++i) {
          Span root_span("core.directed_root", round);
          const Clock::time_point root_start = Clock::now();
          state->directed_worker->Run(state->directed_roots[i], directed[i]);
          directed_root_ms[traced].push_back(
              MillisBetween(root_start, Clock::now()));
        }
      }
      directed_s[traced].push_back(SecondsBetween(start, Clock::now()));
      for (size_t i = 0; i < directed_rows; ++i) {
        if (directed[i].total_subgraphs !=
                directed_reference[i].total_subgraphs ||
            !directed[i].counts.Equals(directed_reference[i].counts)) {
          report.Mismatch("extract: directed root " +
                          std::to_string(state->directed_roots[i]) +
                          " counts differ from a fresh worker's");
          break;
        }
      }
    }
  }
  SetTracing(false);

  // The primary operation is one Run, the secondary the directed census of
  // one root.
  const auto ms = [](std::vector<double> seconds) {
    for (double& s : seconds) s *= 1e3;
    return seconds;
  };
  ReportLanes(report, ms(run_s[0]), directed_root_ms[0]);

  if (!options.trace) return setups.After(std::move(state), report);

  // Single-worker baseline of the same roots (also checked).
  std::vector<double> one_thread_s;
  {
    hsgf::core::ExtractorConfig one_config = state->config;
    one_config.num_threads = 1;
    hsgf::core::Extractor one(state->graph, one_config);
    for (int pass = 0; pass < (options.tiny ? 1 : 2); ++pass) {
      const Clock::time_point start = Clock::now();
      const hsgf::core::ExtractionResult result = one.Run(state->roots);
      one_thread_s.push_back(SecondsBetween(start, Clock::now()));
      if (!SameFeatures(result.features, reference, &where)) {
        report.Mismatch("extract: single-worker run: " + where);
      }
    }
  }

  const std::vector<SpanRecord> spans = CollectSpans();
  if (!WriteSpans(options.trace_path, spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", options.trace_path.c_str());
    return false;
  }
  const hsgf::util::MetricsSnapshot metrics = extractor.metrics().Snapshot();
  const hsgf::util::HistogramSnapshot* node_micros =
      metrics.Histogram("census.node_micros");
  const double runs_total = static_cast<double>(run_s[0].size() + run_s[1].size() + 1);
  const double row_count = static_cast<double>(rows);

  report.Layer("data.generate_s", "s", Median(SpanSeconds(spans, "data.generate")));
  report.Layer("core.census_subgraphs_per_s", "1/s",
               static_cast<double>(metrics.Counter("census.subgraphs_total")) /
                   (HistogramSum(metrics, "census.node_micros") * 1e-6));
  report.Layer("core.root_census_ms_p50", "ms",
               node_micros ? node_micros->Percentile(50) * 1e-3 : 0.0);
  report.Layer("core.root_census_ms_max", "ms",
               node_micros ? static_cast<double>(node_micros->max) * 1e-3 : 0.0);
  report.Layer("core.matrix_build_ms", "ms",
               (SpanTotal(metrics, "extract.vocabulary") +
                SpanTotal(metrics, "extract.matrix_build")) *
                   1e3 / runs_total);
  report.Layer("core.parallel_efficiency", "ratio", Median(efficiency));
  report.Layer("core.max_root_share", "ratio", Median(max_root_share));
  report.Layer("core.rows_per_s_1t", "rows/s", row_count / Median(one_thread_s));
  report.Layer("core.subgraphs_per_row", "count",
               static_cast<double>(CounterDelta(after_first, before_first,
                                         "census.subgraphs_total")) /
                   row_count);
  report.Layer("core.label_group_saved_per_row", "count",
               static_cast<double>(CounterDelta(after_first, before_first,
                                         "census.label_group_saved")) /
                   row_count);
  report.Layer("core.dmax_blocked_per_row", "count",
               static_cast<double>(
                   CounterDelta(after_first, before_first, "census.dmax_blocked")) /
                   row_count);
  report.Layer("core.budget_truncated_roots", "count",
               static_cast<double>(first.truncated_nodes));
  report.Layer("core.feature_columns", "count",
               static_cast<double>(first.features.matrix.cols()));
  report.Layer("core.directed_root_ms_p50", "ms",
               Median(SpanSeconds(spans, "core.directed_root")) * 1e3);
  report.Layer("extract.threads", "count", threads);
  report.Layer("extract.timed_runs", "count",
               static_cast<double>(run_s[0].size() + run_s[1].size()));
  report.Layer("extract.rows_per_s", "rows/s", row_count / Median(run_s[0]));
  report.Layer("extract.directed_rows_per_s", "rows/s",
               static_cast<double>(directed_rows) / Median(directed_s[0]));
  ReportLaneOverheads(report, ms(run_s[1]), ms(run_s[0]), directed_root_ms[1],
                      directed_root_ms[0]);
  return true;
}

}  // namespace perfbench
