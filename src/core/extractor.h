#ifndef HSGF_CORE_EXTRACTOR_H_
#define HSGF_CORE_EXTRACTOR_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/census.h"
#include "core/feature_matrix.h"
#include "graph/degree_stats.h"
#include "graph/het_graph.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/stop_token.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hsgf::core {

// High-level entry point: run the rooted subgraph census for a set of nodes
// (in parallel, per paper §3.2 "trivially parallelizable by starting node")
// and assemble the heterogeneous subgraph feature matrix.
struct ExtractorConfig {
  CensusConfig census;

  // Convenience: when in (0, 100), census.max_degree is derived as the
  // degree at this percentile of the graph's degree distribution (the
  // Table 2 parameterization). 0 keeps census.max_degree as given; 100
  // disables the constraint.
  double dmax_percentile = 0.0;

  // Worker threads for the per-node fan-out (0 = hardware concurrency).
  unsigned num_threads = 1;

  // Multi-root batching: group roots that share a high-degree neighbour and
  // run each group consecutively on one census worker, so consecutive
  // censuses around one hub can find its adjacency still cached (with paged
  // storage, its blocks still pinned). On the census with the aggregated
  // last edge it has no measurable effect on the hub-heavy extract
  // workload: over 16 interleaved pairs of five four-thread Runs, the
  // median per-pair off/on ratio was 1.015 and the median Run 0.407 s on vs
  // 0.405 s off, inside the noise (EXPERIMENTS.md §Aggregated last edge).
  // Pure scheduling: results are keyed by caller index, so the feature
  // matrix is bit-identical with batching on or off, at any thread count
  // (differential-tested).
  bool batch_roots = true;

  FeatureBuildOptions features;
};

// The dmax that an extractor built from (graph, config) will apply:
// census.max_degree, overridden by the dmax_percentile convenience when it
// is set (0 = unlimited). Public so the CLI and benches can report or reuse
// the resolved value without re-deriving the percentile themselves. Works
// for any graph type modelling num_nodes()/degree(v).
template <typename GraphT>
int ResolveDmaxFor(const GraphT& graph, const ExtractorConfig& config) {
  if (config.dmax_percentile > 0.0 && config.dmax_percentile < 100.0) {
    return graph::DegreePercentileOf(
        graph.num_nodes(), [&graph](graph::NodeId v) { return graph.degree(v); },
        config.dmax_percentile);
  }
  if (config.dmax_percentile >= 100.0) return 0;  // constraint disabled
  return config.census.max_degree;
}

inline int ResolveDmax(const graph::HetGraph& graph,
                       const ExtractorConfig& config) {
  return ResolveDmaxFor(graph, config);
}

// Progress report delivered as node censuses complete. Reports are
// throttled: at most one per Extractor::kProgressInterval completed nodes,
// plus a final report carrying the exact totals when the last node
// finishes (runs interrupted by a StopToken may end without one).
struct ExtractionProgress {
  size_t nodes_done = 0;
  size_t nodes_total = 0;
  int64_t subgraphs_so_far = 0;
};
using ProgressFn = std::function<void(const ExtractionProgress&)>;

struct ExtractionResult {
  FeatureSet features;
  // The dmax actually applied (0 = unlimited).
  int effective_dmax = 0;
  // Total subgraph occurrences enumerated over all nodes.
  int64_t total_subgraphs = 0;
  // Nodes whose census hit CensusConfig::max_subgraphs and was truncated.
  int64_t truncated_nodes = 0;
  // Nodes whose census ran (fully or partially); the remaining rows of the
  // feature matrix are zero. Equals the node count unless stopped early.
  size_t nodes_processed = 0;
  // True iff a StopToken (cancellation or deadline) interrupted the run;
  // `features` then covers only the censuses finished in time.
  bool stopped_early = false;
  // Snapshot of the extractor's metrics registry taken at the end of Run():
  // census counters, per-node time histogram, and per-stage spans
  // (cumulative across Run() calls on the same Extractor). See DESIGN.md
  // §Observability for the metric names.
  util::MetricsSnapshot metrics;
};

// Extraction session: binds (graph, config) once, resolves dmax up front,
// and owns the worker thread pool and metrics registry across Run() calls.
// Prefer this over the one-shot ExtractFeatures() wrapper when extracting
// repeatedly from the same graph — the pool threads and the resolved dmax
// are reused, and the metrics registry accumulates over the session.
//
// Run() is deterministic: the feature matrix is identical for any thread
// count. The extractor itself is not re-entrant (one Run() at a time), but
// its censuses execute on the internal pool.
//
// The graph storage is a template parameter (see BasicCensusWorker for the
// concept); each pool thread obtains its own accessor through
// CensusAccess<GraphT>, so paged storages hand every worker a private view.
template <typename GraphT>
class BasicExtractor {
 public:
  // Completed-node stride between progress reports (plus the final one).
  // Keeps the shared progress mutex out of the per-node path: under heavy
  // thread counts a per-node lock acquisition serializes the workers.
  static constexpr size_t kProgressInterval = 16;

  // Roots batch together only around a shared neighbour of at least this
  // degree: below it the adjacency the batch would share is a handful of
  // entries, too little to be worth steering the schedule.
  static constexpr int kBatchHubMinDegree = 12;
  // Upper bound on roots per batch: caps how much work the LPT scheduler
  // must place as one indivisible unit, so batching cannot recreate the
  // straggler problem LPT dispatch avoids.
  static constexpr size_t kBatchCap = 16;

  BasicExtractor(const GraphT& graph, const ExtractorConfig& config);
  ~BasicExtractor() = default;

  BasicExtractor(const BasicExtractor&) = delete;
  BasicExtractor& operator=(const BasicExtractor&) = delete;

  const GraphT& graph() const { return graph_; }
  const ExtractorConfig& config() const { return config_; }
  // The dmax applied to every census of this session (0 = unlimited).
  int effective_dmax() const { return census_config_.max_degree; }

  // Worker threads Run() fans out over. This is the single place where
  // ExtractorConfig::num_threads == 0 resolves (to the hardware concurrency,
  // inside ThreadPool); 1 means the census runs inline on the caller.
  unsigned num_worker_threads() const {
    return pool_ != nullptr ? pool_->num_threads() : 1;
  }

  // Live registry backing this session's instrumentation; snapshot it at
  // any time (including concurrently with Run()) for in-flight metrics.
  util::MetricsRegistry& metrics() { return metrics_; }

  // Runs the census rooted at every node in `nodes` and builds the feature
  // set. `nodes` may contain any subset of the graph's nodes (the paper
  // samples 250 per label for label prediction and all institutions for
  // rank prediction).
  //
  // `stop` is polled inside the census enumeration loops: when it fires,
  // in-flight censuses return their partial counts, queued nodes are
  // skipped, and the result carries stopped_early. `progress`, when set, is
  // invoked at most once per kProgressInterval completed censuses plus once
  // at the end (serialized, but possibly from worker threads).
  ExtractionResult Run(const std::vector<graph::NodeId>& nodes);
  ExtractionResult Run(const std::vector<graph::NodeId>& nodes,
                       util::StopToken stop, ProgressFn progress = nullptr);

  // Censuses a single node inline with the session's resolved configuration
  // and instrumentation — the serving layer's cold-miss path. Produces
  // exactly the counts a batch Run() would produce for this node (per-node
  // censuses are independent). Builds a fresh O(V) worker per call; safe to
  // call concurrently with other RunCensus() calls (the registry is
  // thread-safe), but not concurrently with Run().
  CensusResult RunCensus(graph::NodeId node, util::StopToken stop = {});

 private:
  using Access = CensusAccess<GraphT>;
  using Worker = BasicCensusWorker<typename Access::View>;

  // Groups indices into `nodes` into the batches Run() schedules: roots
  // keyed by their highest-degree neighbour of degree >= kBatchHubMinDegree
  // (ties to the smallest id), in caller order, split at kBatchCap; roots
  // with no such neighbour run solo. Deterministic in the input alone.
  std::vector<std::vector<size_t>> PlanBatches(
      const std::vector<graph::NodeId>& nodes);

  const GraphT& graph_;
  ExtractorConfig config_;
  CensusConfig census_config_;  // config_.census with dmax resolved
  util::MetricsRegistry metrics_;
  CensusMetrics census_metrics_;
  util::MetricId span_resolve_dmax_ = util::kInvalidMetric;
  util::MetricId span_census_ = util::kInvalidMetric;
  util::MetricId hist_node_micros_ = util::kInvalidMetric;
  util::MetricId gauge_effective_dmax_ = util::kInvalidMetric;
  util::MetricId gauge_nodes_total_ = util::kInvalidMetric;
  util::MetricId gauge_root_batches_ = util::kInvalidMetric;
  util::MetricId gauge_features_selected_ = util::kInvalidMetric;
  std::unique_ptr<util::ThreadPool> pool_;  // null when single-threaded
};

// The extraction session every existing call site uses: in-RAM CSR.
using Extractor = BasicExtractor<graph::HetGraph>;

// One-shot convenience kept for existing call sites: builds a throwaway
// Extractor session and runs it once.
ExtractionResult ExtractFeatures(const graph::HetGraph& graph,
                                 const std::vector<graph::NodeId>& nodes,
                                 const ExtractorConfig& config);

// --- BasicExtractor implementation ------------------------------------------

template <typename GraphT>
BasicExtractor<GraphT>::BasicExtractor(const GraphT& graph,
                                       const ExtractorConfig& config)
    : graph_(graph), config_(config), census_config_(config.census) {
  span_resolve_dmax_ = metrics_.Span("extract.resolve_dmax");
  span_census_ = metrics_.Span("extract.census");
  hist_node_micros_ = metrics_.Histogram("census.node_micros");
  gauge_effective_dmax_ = metrics_.Gauge("extract.effective_dmax");
  gauge_nodes_total_ = metrics_.Gauge("extract.nodes_total");
  gauge_root_batches_ = metrics_.Gauge("extract.root_batches");
  gauge_features_selected_ = metrics_.Gauge("extract.features_selected");
  census_metrics_ = CensusMetrics::Register(metrics_, census_config_.max_edges);

  {
    util::ScopedSpan span(metrics_, span_resolve_dmax_);
    census_config_.max_degree = ResolveDmaxFor(graph, config);
  }
  metrics_.SetGauge(gauge_effective_dmax_, census_config_.max_degree);

  // The pool (and its threads) lives for the whole session; num_threads == 0
  // resolves to the hardware concurrency inside ThreadPool.
  if (config_.num_threads != 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
}

template <typename GraphT>
ExtractionResult BasicExtractor<GraphT>::Run(
    const std::vector<graph::NodeId>& nodes) {
  return Run(nodes, util::StopToken(), nullptr);
}

template <typename GraphT>
ExtractionResult BasicExtractor<GraphT>::Run(
    const std::vector<graph::NodeId>& nodes, util::StopToken stop,
    ProgressFn progress) {
  ExtractionResult result;
  result.effective_dmax = census_config_.max_degree;
  metrics_.SetGauge(gauge_nodes_total_, static_cast<double>(nodes.size()));

  std::vector<CensusResult> censuses(nodes.size());
  std::atomic<size_t> nodes_done{0};
  std::atomic<int64_t> subgraphs_so_far{0};
  std::atomic<bool> any_stopped{false};
  // hsgf-lint: allow(mutex-guard) function-local; GUARDED_BY is members-only
  util::Mutex progress_mutex;

  auto process = [&](Worker& worker, size_t i) {
    util::Stopwatch watch;
    worker.Run(nodes[i], censuses[i], stop);
    metrics_.Observe(hist_node_micros_, watch.ElapsedMicros());
    if (censuses[i].stopped) any_stopped.store(true, std::memory_order_relaxed);
    // Plain statistic: relaxed is enough on its own, the acq_rel RMW on
    // nodes_done below publishes it to whichever thread reports next.
    subgraphs_so_far.fetch_add(censuses[i].total_subgraphs,
                               std::memory_order_relaxed);
    const size_t done = nodes_done.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Throttle: a progress report (and its mutex) at most once per
    // kProgressInterval completions, plus the final one — not per node.
    // The acq_rel increment chain guarantees the report that observes
    // done == total also observes every worker's subgraph contribution.
    if (progress &&
        (done % kProgressInterval == 0 || done == nodes.size())) {
      // Re-read under the lock rather than passing the values computed
      // above: reports stay monotone even when workers reach the lock out
      // of order, and the last report carries the final totals.
      util::MutexLock lock(progress_mutex);
      progress({nodes_done.load(std::memory_order_acquire), nodes.size(),
                subgraphs_so_far.load(std::memory_order_relaxed)});
    }
  };

  // Multi-root batching (scheduling only): each batch runs back-to-back on
  // one worker, so the censuses around a shared hub follow each other. With
  // batching off every root is its own batch and the loops below degenerate
  // to the per-root schedule.
  std::vector<std::vector<size_t>> batches;
  if (config_.batch_roots && nodes.size() > 1) {
    batches = PlanBatches(nodes);
  } else {
    batches.reserve(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) batches.push_back({i});
  }
  metrics_.SetGauge(gauge_root_batches_, static_cast<double>(batches.size()));

  {
    util::ScopedSpan span(metrics_, span_census_);
    if (pool_ == nullptr || nodes.size() <= 1) {
      auto&& view = Access::MakeView(graph_);
      Worker worker(view, census_config_, census_metrics_);
      for (const std::vector<size_t>& batch : batches) {
        if (stop.StopRequested()) break;
        for (size_t i : batch) {
          if (stop.StopRequested()) break;
          process(worker, i);
        }
      }
    } else {
      // Skew-aware dispatch (longest-processing-time-first): census cost is
      // wildly skewed by start-node degree (paper Table 3 reports per-node
      // outliers of 2493 s on hubs). Dequeuing in caller order can land a
      // hub last and serialize the tail of the run on one thread; starting
      // the heaviest batches first bounds the straggler to roughly the
      // heaviest single batch (kBatchCap bounds how heavy batching can make
      // one). Results still land in caller slot order — censuses[i] is
      // keyed by the original index — so the feature matrix is identical
      // for any schedule.
      std::vector<int64_t> weight(batches.size(), 0);
      for (size_t b = 0; b < batches.size(); ++b) {
        for (size_t i : batches[b]) weight[b] += graph_.degree(nodes[i]);
      }
      std::vector<size_t> order(batches.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return weight[a] > weight[b];
      });
      // Work-queue ticket: the RMW hands each batch to exactly one thread;
      // no other memory is published through it, hence relaxed.
      std::atomic<size_t> cursor{0};
      const unsigned worker_count = pool_->num_threads();
      for (unsigned t = 0; t < worker_count; ++t) {
        pool_->Submit([&] {
          // One O(V) census worker per thread; the graph is shared
          // read-only (paper: O(tV + E) memory). Paged storages hand each
          // thread a private view through CensusAccess.
          auto&& view = Access::MakeView(graph_);
          Worker worker(view, census_config_, census_metrics_);
          for (;;) {
            if (stop.StopRequested()) return;
            const size_t b = cursor.fetch_add(1, std::memory_order_relaxed);
            if (b >= order.size()) return;
            for (size_t i : batches[order[b]]) {
              if (stop.StopRequested()) return;
              process(worker, i);
            }
          }
        });
      }
      pool_->Wait();
    }
  }

  result.nodes_processed = nodes_done.load();
  result.stopped_early = any_stopped.load(std::memory_order_relaxed) ||
                         result.nodes_processed < nodes.size();
  for (const CensusResult& census : censuses) {
    result.total_subgraphs += census.total_subgraphs;
    if (census.truncated) ++result.truncated_nodes;
  }
  result.features = BuildFeatureSet(censuses, config_.features, &metrics_);
  metrics_.SetGauge(gauge_features_selected_,
                    static_cast<double>(result.features.matrix.cols()));
  result.metrics = metrics_.Snapshot();
  return result;
}

template <typename GraphT>
std::vector<std::vector<size_t>> BasicExtractor<GraphT>::PlanBatches(
    const std::vector<graph::NodeId>& nodes) {
  std::vector<std::vector<size_t>> batches;
  batches.reserve(nodes.size());
  auto&& view = Access::MakeView(graph_);
  // hub -> index of its still-open batch in `batches`.
  std::unordered_map<graph::NodeId, size_t> open;
  for (size_t i = 0; i < nodes.size(); ++i) {
    // Batch key: the root's highest-degree neighbour at or above the hub
    // threshold, ties to the smallest id. degree() is O(1) index metadata on
    // every census storage, so probing it inside the neighbour walk never
    // invalidates the neighbors() range.
    graph::NodeId hub = -1;
    int hub_degree = 0;
    for (graph::NodeId w : view.neighbors(nodes[i])) {
      const int d = view.degree(w);
      if (d < kBatchHubMinDegree) continue;
      if (hub < 0 || d > hub_degree || (d == hub_degree && w < hub)) {
        hub = w;
        hub_degree = d;
      }
    }
    if (hub < 0) {
      batches.push_back({i});
      continue;
    }
    auto [it, inserted] = open.try_emplace(hub, batches.size());
    if (inserted) batches.emplace_back();
    std::vector<size_t>& batch = batches[it->second];
    batch.push_back(i);
    if (batch.size() >= kBatchCap) open.erase(it);
  }
  return batches;
}

template <typename GraphT>
CensusResult BasicExtractor<GraphT>::RunCensus(graph::NodeId node,
                                               util::StopToken stop) {
  auto&& view = Access::MakeView(graph_);
  Worker worker(view, census_config_, census_metrics_);
  CensusResult result;
  util::Stopwatch watch;
  worker.Run(node, result, stop);
  metrics_.Observe(hist_node_micros_, watch.ElapsedMicros());
  return result;
}

// The CSR instantiation lives in extractor.cc (see census.h for why).
extern template class BasicExtractor<graph::HetGraph>;

}  // namespace hsgf::core

#endif  // HSGF_CORE_EXTRACTOR_H_
