// Micro-benchmarks (google-benchmark) for the census design choices called
// out in DESIGN.md: the label-grouping heuristic (§3.2 "Heterogeneous
// Optimization Heuristic"), the dmax constraint, the emax scaling law, and
// the cost of materializing encodings.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/census.h"
#include "data/generator.h"
#include "data/schema.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace {

using namespace hsgf;

const graph::HetGraph& LoadGraph() {
  // Function-local static: built once on first use, reused by every
  // benchmark, destroyed at exit (no leaked fixture).
  static const graph::HetGraph graph(
      data::MakeNetwork(data::LoadLikeSchema(0.25), 5));
  return graph;
}

const graph::HetGraph& ImdbGraph() {
  static const graph::HetGraph graph(
      data::MakeNetwork(data::ImdbLikeSchema(0.25), 6));
  return graph;
}

std::vector<graph::NodeId> SampleNodes(const graph::HetGraph& graph, int count,
                                       uint64_t seed) {
  util::Rng rng(seed);
  std::vector<graph::NodeId> nodes;
  while (static_cast<int>(nodes.size()) < count) {
    graph::NodeId v =
        static_cast<graph::NodeId>(rng.UniformInt(graph.num_nodes()));
    if (graph.degree(v) > 0) nodes.push_back(v);
  }
  return nodes;
}

void RunCensusBenchmark(benchmark::State& state, const graph::HetGraph& graph,
                        core::CensusConfig config) {
  auto nodes = SampleNodes(graph, 16, 77);
  util::MetricsRegistry registry;
  core::CensusWorker worker(graph, config,
                            core::CensusMetrics::Register(registry,
                                                          config.max_edges));
  core::CensusResult result;
  int64_t subgraphs = 0;
  size_t cursor = 0;
  for (auto _ : state) {
    worker.Run(nodes[cursor], result);
    subgraphs += result.total_subgraphs;
    cursor = (cursor + 1) % nodes.size();
  }
  state.SetItemsProcessed(subgraphs);
  // Heuristic-effectiveness counters (per census), exported into the
  // google-benchmark JSON so BENCH_*.json tracks them over time.
  const util::MetricsSnapshot snap = registry.Snapshot();
  auto per_iter = [&](const char* name) {
    return benchmark::Counter(static_cast<double>(snap.Counter(name)),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["subgraphs"] = per_iter("census.subgraphs_total");
  state.counters["distinct"] = per_iter("census.distinct_encodings");
  state.counters["group_saved"] = per_iter("census.label_group_saved");
  state.counters["dmax_blocked"] = per_iter("census.dmax_blocked");
  state.counters["materialized"] = per_iter("census.encoding_materializations");
}

void BM_CensusEmax(benchmark::State& state) {
  core::CensusConfig config;
  config.max_edges = static_cast<int>(state.range(0));
  config.max_degree = 40;
  RunCensusBenchmark(state, LoadGraph(), config);
}
BENCHMARK(BM_CensusEmax)->DenseRange(2, 5);

void BM_CensusGroupByLabel(benchmark::State& state) {
  core::CensusConfig config;
  config.max_edges = 4;
  config.max_degree = 40;
  config.group_by_label = state.range(0) != 0;
  RunCensusBenchmark(state, LoadGraph(), config);
}
BENCHMARK(BM_CensusGroupByLabel)->Arg(0)->Arg(1);

void BM_CensusDmax(benchmark::State& state) {
  core::CensusConfig config;
  config.max_edges = 4;
  config.max_degree = static_cast<int>(state.range(0));
  RunCensusBenchmark(state, LoadGraph(), config);
}
BENCHMARK(BM_CensusDmax)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_CensusKeepEncodings(benchmark::State& state) {
  core::CensusConfig config;
  config.max_edges = 4;
  config.max_degree = 40;
  config.keep_encodings = state.range(0) != 0;
  RunCensusBenchmark(state, LoadGraph(), config);
}
BENCHMARK(BM_CensusKeepEncodings)->Arg(0)->Arg(1);

void BM_CensusStarSchema(benchmark::State& state) {
  core::CensusConfig config;
  config.max_edges = static_cast<int>(state.range(0));
  config.max_degree = 60;
  RunCensusBenchmark(state, ImdbGraph(), config);
}
BENCHMARK(BM_CensusStarSchema)->DenseRange(3, 5);

}  // namespace

BENCHMARK_MAIN();
