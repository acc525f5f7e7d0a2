#include "core/extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "core/feature_matrix.h"
#include "data/generator.h"
#include "data/schema.h"
#include "graph/builder.h"
#include "graph/degree_stats.h"
#include "util/metrics.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace hsgf::core {
namespace {

using graph::HetGraph;
using graph::NodeId;

HetGraph TestNetwork() {
  return data::MakeNetwork(data::LoadLikeSchema(0.03), 7);
}

TEST(FeatureMatrixTest, ColumnsSharedAcrossNodes) {
  HetGraph graph = TestNetwork();
  CensusConfig config;
  config.max_edges = 3;
  config.keep_encodings = true;
  CensusWorker worker(graph, config);
  std::vector<CensusResult> censuses(3);
  worker.Run(0, censuses[0]);
  worker.Run(1, censuses[1]);
  worker.Run(2, censuses[2]);
  FeatureBuildOptions options;
  options.log1p_transform = false;
  FeatureSet set = BuildFeatureSet(censuses, options);
  EXPECT_EQ(set.matrix.rows(), 3);
  EXPECT_EQ(set.matrix.cols(), static_cast<int>(set.feature_hashes.size()));
  // Every nonzero cell equals the census count for that hash.
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < set.matrix.cols(); ++c) {
      EXPECT_DOUBLE_EQ(
          set.matrix(r, c),
          static_cast<double>(censuses[r].counts.Get(set.feature_hashes[c])));
    }
  }
  // Encodings recorded for all columns.
  for (uint64_t hash : set.feature_hashes) {
    EXPECT_TRUE(set.encodings.contains(hash));
  }
}

TEST(FeatureMatrixTest, MaxFeaturesKeepsMostFrequent) {
  HetGraph graph = TestNetwork();
  CensusConfig config;
  config.max_edges = 3;
  CensusWorker worker(graph, config);
  std::vector<CensusResult> censuses(4);
  for (int i = 0; i < 4; ++i) worker.Run(i, censuses[i]);

  FeatureBuildOptions all_options;
  FeatureSet all = BuildFeatureSet(censuses, all_options);
  FeatureBuildOptions top_options;
  top_options.max_features = 5;
  FeatureSet top = BuildFeatureSet(censuses, top_options);
  ASSERT_GT(all.feature_hashes.size(), 5u);
  EXPECT_EQ(top.feature_hashes.size(), 5u);
  // The kept columns are the 5 highest-total columns of the full set, which
  // are the first 5 since columns are sorted by total count.
  for (int c = 0; c < 5; ++c) {
    EXPECT_EQ(top.feature_hashes[c], all.feature_hashes[c]);
  }
}

TEST(FeatureMatrixTest, Log1pTransformApplied) {
  HetGraph graph = TestNetwork();
  CensusConfig config;
  config.max_edges = 2;
  CensusWorker worker(graph, config);
  std::vector<CensusResult> censuses(1);
  worker.Run(0, censuses[0]);
  FeatureBuildOptions raw_options;
  raw_options.log1p_transform = false;
  FeatureBuildOptions log_options;
  log_options.log1p_transform = true;
  FeatureSet raw = BuildFeatureSet(censuses, raw_options);
  FeatureSet logged = BuildFeatureSet(censuses, log_options);
  for (int c = 0; c < raw.matrix.cols(); ++c) {
    EXPECT_NEAR(logged.matrix(0, c), std::log1p(raw.matrix(0, c)), 1e-12);
  }
}

TEST(ExtractorTest, ParallelMatchesSerial) {
  HetGraph graph = TestNetwork();
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < 12; ++v) nodes.push_back(v);

  ExtractorConfig serial;
  serial.census.max_edges = 3;
  serial.census.keep_encodings = true;
  serial.num_threads = 1;
  ExtractorConfig parallel = serial;
  parallel.num_threads = 4;

  ExtractionResult a = ExtractFeatures(graph, nodes, serial);
  ExtractionResult b = ExtractFeatures(graph, nodes, parallel);
  EXPECT_EQ(a.total_subgraphs, b.total_subgraphs);
  ASSERT_EQ(a.features.feature_hashes, b.features.feature_hashes);
  EXPECT_EQ(a.features.matrix.data(), b.features.matrix.data());
}

// Hub-and-spoke network on which multi-root batching actually fires: every
// leaf's highest-degree neighbour is its hub (degree >= the extractor's
// kBatchHubMinDegree), so leaves of one hub share a batch; hubs themselves
// have only low-degree neighbours and run solo. Cross-edges between
// consecutive leaves keep the censuses non-trivial.
HetGraph HubNetwork(int num_hubs, int leaves_per_hub) {
  const NodeId num_nodes = num_hubs * (1 + leaves_per_hub);
  std::vector<graph::Label> labels(num_nodes);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int h = 0; h < num_hubs; ++h) {
    const NodeId hub = h * (1 + leaves_per_hub);
    labels[hub] = 0;
    for (int l = 0; l < leaves_per_hub; ++l) {
      const NodeId leaf = hub + 1 + l;
      labels[leaf] = static_cast<graph::Label>(1 + (l % 2));
      edges.emplace_back(hub, leaf);
      if (l > 0) edges.emplace_back(leaf - 1, leaf);
    }
  }
  return graph::MakeGraph({"hub", "odd", "even"}, labels, edges);
}

TEST(ExtractorTest, BatchedMatchesPerRootAcrossThreads) {
  // Leaves-per-hub above kBatchCap (16) so the plan also splits batches.
  HetGraph graph = HubNetwork(/*num_hubs=*/3, /*leaves_per_hub=*/20);
  ASSERT_GE(graph.degree(0), Extractor::kBatchHubMinDegree);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) nodes.push_back(v);

  ExtractorConfig baseline;
  baseline.census.max_edges = 3;
  baseline.census.keep_encodings = true;
  baseline.num_threads = 1;
  baseline.batch_roots = false;
  const ExtractionResult expected = ExtractFeatures(graph, nodes, baseline);

  // Batching is pure scheduling: the feature matrix must be bit-identical
  // across batching on/off x thread counts.
  for (bool batch : {true, false}) {
    for (unsigned threads : {1u, 4u}) {
      ExtractorConfig config = baseline;
      config.batch_roots = batch;
      config.num_threads = threads;
      const ExtractionResult actual = ExtractFeatures(graph, nodes, config);
      const std::string context = "batch=" + std::to_string(batch) +
                                  " threads=" + std::to_string(threads);
      EXPECT_EQ(expected.total_subgraphs, actual.total_subgraphs) << context;
      EXPECT_EQ(expected.truncated_nodes, actual.truncated_nodes) << context;
      ASSERT_EQ(expected.features.feature_hashes,
                actual.features.feature_hashes)
          << context;
      EXPECT_EQ(expected.features.matrix.data(), actual.features.matrix.data())
          << context;
      EXPECT_EQ(expected.features.encodings, actual.features.encodings)
          << context;

      // The schedule itself differs: batching groups each hub's leaves
      // (split at kBatchCap), so there are strictly fewer batches than
      // roots; without it every root is its own batch.
      const double batches = actual.metrics.Gauge("extract.root_batches");
      if (batch) {
        EXPECT_LT(batches, static_cast<double>(nodes.size())) << context;
        EXPECT_GE(batches, static_cast<double>(nodes.size()) /
                               static_cast<double>(Extractor::kBatchCap))
            << context;
      } else {
        EXPECT_EQ(batches, static_cast<double>(nodes.size())) << context;
      }
    }
  }
}

TEST(ExtractorTest, DmaxPercentileResolvesToDegree) {
  HetGraph graph = TestNetwork();
  ExtractorConfig config;
  config.census.max_edges = 2;
  config.dmax_percentile = 90.0;
  ExtractionResult result = ExtractFeatures(graph, {0, 1}, config);
  EXPECT_EQ(result.effective_dmax, graph::DegreePercentile(graph, 90.0));
  // 100% disables the constraint.
  config.dmax_percentile = 100.0;
  result = ExtractFeatures(graph, {0, 1}, config);
  EXPECT_EQ(result.effective_dmax, 0);
}

TEST(ExtractorTest, MetricsCoverEveryNodeAndStage) {
  HetGraph graph = TestNetwork();
  ExtractorConfig config;
  config.census.max_edges = 3;
  std::vector<NodeId> nodes = {0, 1, 2, 3, 4};
  ExtractionResult result = ExtractFeatures(graph, nodes, config);
  EXPECT_FALSE(result.stopped_early);
  EXPECT_EQ(result.nodes_processed, nodes.size());

  const util::MetricsSnapshot& snap = result.metrics;
  EXPECT_EQ(snap.Counter("census.nodes"), static_cast<int64_t>(nodes.size()));
  EXPECT_EQ(snap.Counter("census.subgraphs_total"), result.total_subgraphs);
  EXPECT_GT(snap.Counter("census.distinct_encodings"), 0);

  const util::HistogramSnapshot* node_micros =
      snap.Histogram("census.node_micros");
  ASSERT_NE(node_micros, nullptr);
  EXPECT_EQ(node_micros->count, static_cast<int64_t>(nodes.size()));

  for (const char* span : {"extract.resolve_dmax", "extract.census",
                           "extract.vocabulary", "extract.matrix_build"}) {
    const util::SpanSnapshot* s = snap.Span(span);
    ASSERT_NE(s, nullptr) << span;
    EXPECT_GE(s->count, 1) << span;
  }
  EXPECT_DOUBLE_EQ(snap.Gauge("extract.nodes_total"),
                   static_cast<double>(nodes.size()));
}

TEST(ExtractorTest, SessionReuseAccumulatesMetrics) {
  HetGraph graph = TestNetwork();
  ExtractorConfig config;
  config.census.max_edges = 3;
  Extractor extractor(graph, config);
  ExtractionResult first = extractor.Run({0, 1, 2});
  ExtractionResult second = extractor.Run({3, 4});
  // The registry lives with the session: counters accumulate across runs.
  EXPECT_EQ(first.metrics.Counter("census.nodes"), 3);
  EXPECT_EQ(second.metrics.Counter("census.nodes"), 5);
  EXPECT_EQ(second.features.matrix.rows(), 2);
  EXPECT_EQ(extractor.effective_dmax(), first.effective_dmax);
}

TEST(ExtractorTest, ProgressThrottledAndFinalReportExact) {
  HetGraph graph = TestNetwork();
  ExtractorConfig config;
  config.census.max_edges = 3;
  config.num_threads = 2;
  // Enough nodes to cross the throttle stride at least twice.
  const size_t count =
      std::min<size_t>(2 * Extractor::kProgressInterval + 3,
                       static_cast<size_t>(graph.num_nodes()));
  ASSERT_GT(count, Extractor::kProgressInterval);
  std::vector<NodeId> nodes;
  for (size_t v = 0; v < count; ++v) nodes.push_back(static_cast<NodeId>(v));
  Extractor extractor(graph, config);
  std::vector<ExtractionProgress> updates;
  ExtractionResult result = extractor.Run(
      nodes, util::StopToken(),
      [&updates](const ExtractionProgress& p) { updates.push_back(p); });
  // Throttled: at most one report per kProgressInterval completions plus
  // the final one — never one per node.
  ASSERT_GE(updates.size(), 1u);
  EXPECT_LE(updates.size(),
            nodes.size() / Extractor::kProgressInterval + 1);
  size_t last_done = 0;
  for (const ExtractionProgress& p : updates) {
    EXPECT_EQ(p.nodes_total, nodes.size());
    EXPECT_GE(p.nodes_done, last_done);  // monotone under the lock
    last_done = p.nodes_done;
  }
  // The final report carries the exact totals.
  EXPECT_EQ(updates.back().nodes_done, nodes.size());
  EXPECT_EQ(updates.back().subgraphs_so_far, result.total_subgraphs);
}

TEST(ExtractorTest, PreCancelledTokenStopsImmediately) {
  HetGraph graph = TestNetwork();
  ExtractorConfig config;
  config.census.max_edges = 3;
  std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  util::StopSource source;
  source.RequestStop();
  Extractor extractor(graph, config);
  ExtractionResult result = extractor.Run(nodes, source.Token());
  EXPECT_TRUE(result.stopped_early);
  EXPECT_LT(result.nodes_processed, nodes.size());
  // Partial results still come back well-formed.
  EXPECT_EQ(result.features.matrix.rows(), static_cast<int>(nodes.size()));
}

TEST(ExtractorTest, DeadlineStopsLargeCensus) {
  // A dense network with no dmax cap and a tight deadline: the extraction
  // must come back quickly with stopped_early set rather than finishing the
  // full (expensive) census.
  HetGraph graph = data::MakeNetwork(data::LoadLikeSchema(0.4), 11);
  ExtractorConfig config;
  config.census.max_edges = 6;
  config.dmax_percentile = 100.0;  // no degree cap
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) nodes.push_back(v);

  util::StopSource source;
  source.SetDeadlineAfter(0.05);
  util::Stopwatch watch;
  Extractor extractor(graph, config);
  ExtractionResult result = extractor.Run(nodes, source.Token());
  const double elapsed = watch.ElapsedSeconds();
  EXPECT_TRUE(result.stopped_early);
  EXPECT_LT(result.nodes_processed, nodes.size());
  // Generous bound: polling every kStopCheckInterval steps must get us out
  // far sooner than the unbounded census would take.
  EXPECT_LT(elapsed, 10.0);
  EXPECT_GT(result.metrics.Counter("census.stopped_nodes"), 0);
}

TEST(ExtractorTest, BudgetTruncationSurfacesInResultAndMetrics) {
  HetGraph graph = TestNetwork();
  ExtractorConfig config;
  config.census.max_edges = 4;
  config.census.max_subgraphs = 10;  // tiny per-node budget
  std::vector<NodeId> nodes = {0, 1, 2, 3};
  ExtractionResult result = ExtractFeatures(graph, nodes, config);
  EXPECT_GT(result.truncated_nodes, 0);
  EXPECT_EQ(result.metrics.Counter("census.budget_truncated_nodes"),
            result.truncated_nodes);
  EXPECT_FALSE(result.stopped_early);
}

TEST(ExtractorTest, SmallerDmaxNeverIncreasesSubgraphCount) {
  HetGraph graph = TestNetwork();
  std::vector<NodeId> nodes = {0, 1, 2, 3};
  ExtractorConfig unlimited;
  unlimited.census.max_edges = 3;
  ExtractorConfig limited = unlimited;
  limited.dmax_percentile = 80.0;
  ExtractionResult full = ExtractFeatures(graph, nodes, unlimited);
  ExtractionResult pruned = ExtractFeatures(graph, nodes, limited);
  EXPECT_LE(pruned.total_subgraphs, full.total_subgraphs);
}

TEST(ExtractorTest, ZeroThreadsResolvesToHardwareConcurrencyOnce) {
  HetGraph graph = TestNetwork();
  ExtractorConfig config;
  config.census.max_edges = 2;

  // num_threads == 0 must resolve in exactly one place (the pool), and
  // num_worker_threads() must report the resolved value, not the raw 0.
  config.num_threads = 0;
  Extractor auto_sized(graph, config);
  const unsigned hardware = std::thread::hardware_concurrency();
  EXPECT_EQ(auto_sized.num_worker_threads(), hardware == 0 ? 1u : hardware);
  EXPECT_GE(auto_sized.num_worker_threads(), 1u);

  config.num_threads = 1;
  Extractor inline_sized(graph, config);
  EXPECT_EQ(inline_sized.num_worker_threads(), 1u);

  config.num_threads = 3;
  Extractor explicit_sized(graph, config);
  EXPECT_EQ(explicit_sized.num_worker_threads(), 3u);

  // The resolved pool still produces the single-threaded matrix.
  std::vector<NodeId> nodes = {0, 1, 2, 3};
  ExtractionResult auto_result = auto_sized.Run(nodes);
  ExtractionResult inline_result = inline_sized.Run(nodes);
  ASSERT_EQ(auto_result.features.feature_hashes,
            inline_result.features.feature_hashes);
  EXPECT_EQ(auto_result.features.matrix.data(),
            inline_result.features.matrix.data());
}

TEST(ExtractorTest, SingleNodeRunCensusMatchesBatchRun) {
  HetGraph graph = TestNetwork();
  ExtractorConfig config;
  config.census.max_edges = 3;
  config.census.keep_encodings = true;
  config.features.log1p_transform = false;  // cells equal raw counts

  std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5};
  Extractor extractor(graph, config);
  ExtractionResult batch = extractor.Run(nodes);

  // The serving layer's cold-miss path: every node censused alone must
  // reproduce its batch matrix row exactly (bit-identical counts).
  for (size_t r = 0; r < nodes.size(); ++r) {
    CensusResult solo = extractor.RunCensus(nodes[r]);
    EXPECT_FALSE(solo.stopped);
    int64_t nonzero = 0;
    for (size_t c = 0; c < batch.features.feature_hashes.size(); ++c) {
      const double cell =
          batch.features.matrix(static_cast<int>(r), static_cast<int>(c));
      EXPECT_EQ(cell, static_cast<double>(solo.counts.Get(
                          batch.features.feature_hashes[c])))
          << "node " << nodes[r] << " col " << c;
      if (cell != 0.0) ++nonzero;
    }
    if (graph.degree(nodes[r]) > 0) {
      EXPECT_GT(nonzero, 0) << "node " << nodes[r];
    }
  }
}

TEST(ExtractorTest, RunCensusHonorsStopToken) {
  HetGraph graph = TestNetwork();
  ExtractorConfig config;
  config.census.max_edges = 3;
  Extractor extractor(graph, config);
  util::StopSource source;
  source.RequestStop();
  CensusResult result = extractor.RunCensus(0, source.Token());
  EXPECT_TRUE(result.stopped);
}

TEST(ExtractorTest, MaskedStartLabelHidesOwnLabelFeature) {
  // With masking on, two nodes with identical neighbourhood structure but
  // different own labels get identical feature rows.
  graph::GraphBuilder builder({"a", "b", "c"});
  NodeId x = builder.AddNode(0);
  NodeId y = builder.AddNode(1);
  // Give both the same neighbourhood: two c-neighbours each.
  for (int i = 0; i < 2; ++i) {
    NodeId c1 = builder.AddNode(2);
    NodeId c2 = builder.AddNode(2);
    builder.AddEdge(x, c1);
    builder.AddEdge(y, c2);
  }
  HetGraph graph = std::move(builder).Build();
  ExtractorConfig config;
  config.census.max_edges = 3;
  config.census.mask_start_label = true;
  ExtractionResult result = ExtractFeatures(graph, {x, y}, config);
  for (int c = 0; c < result.features.matrix.cols(); ++c) {
    EXPECT_DOUBLE_EQ(result.features.matrix(0, c),
                     result.features.matrix(1, c));
  }
}

}  // namespace
}  // namespace hsgf::core
