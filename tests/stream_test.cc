// Tests for the streaming subsystem (src/stream): the DynamicGraph overlay,
// the delta-log codec, the dirty-root tracker, and the StreamEngine's
// headline guarantee — after any delta batch, incrementally maintained
// features are bit-identical to a from-scratch census of the mutated graph,
// whether a row was updated by its changed-edge delta or re-censused in full.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/census.h"
#include "core/directed_census.h"
#include "data/generator.h"
#include "data/schema.h"
#include "graph/builder.h"
#include "graph/digraph.h"
#include "graph/het_graph.h"
#include "stream/delta_log.h"
#include "stream/dirty_tracker.h"
#include "stream/dynamic_graph.h"
#include "stream/stream_engine.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace hsgf::stream {
namespace {

using graph::HetGraph;
using graph::Label;
using graph::MakeGraph;
using graph::NodeId;

// Hash -> count pairs of a census result, sorted by hash: the canonical
// comparison form used throughout the equivalence tests.
std::vector<std::pair<uint64_t, int64_t>> CountsOf(
    const core::CensusResult& result) {
  std::vector<std::pair<uint64_t, int64_t>> counts;
  result.counts.ForEach([&](uint64_t hash, int64_t count) {
    counts.emplace_back(hash, count);
  });
  std::sort(counts.begin(), counts.end());
  return counts;
}

// Engine row translated from (column, count) to (hash, count), sorted.
std::vector<std::pair<uint64_t, int64_t>> EngineRowCounts(
    const StreamEngine& engine, NodeId node) {
  auto row = engine.RowCounts(node);
  EXPECT_TRUE(row.has_value());
  std::vector<uint64_t> vocab = engine.vocabulary();
  std::vector<std::pair<uint64_t, int64_t>> counts;
  for (const auto& [column, count] : *row) {
    counts.emplace_back(vocab[column], count);
  }
  std::sort(counts.begin(), counts.end());
  return counts;
}

// A small fixed graph: authors 0,1 — papers 2,3,4 in a path a0-p2-p3-p4-a1.
HetGraph PathGraph() {
  return MakeGraph({"author", "paper"}, {0, 0, 1, 1, 1},
                   {{0, 2}, {2, 3}, {3, 4}, {4, 1}});
}

// ---------------------------------------------------------------------------
// DynamicGraph

TEST(DynamicGraphTest, AppliesAndRejectsDeltas) {
  DynamicGraph graph(PathGraph());
  EXPECT_EQ(graph.num_nodes(), 5);
  EXPECT_EQ(graph.num_edges(), 4u);

  std::string error;
  EXPECT_FALSE(graph.AddEdge(0, 0, &error));  // self loop
  EXPECT_FALSE(graph.AddEdge(0, 2, &error));  // duplicate
  EXPECT_FALSE(graph.AddEdge(0, 99, &error));  // out of range
  EXPECT_FALSE(graph.RemoveEdge(0, 4, &error));  // missing edge
  EXPECT_FALSE(graph.Apply(DeltaOp::AddNode(7), &error));  // bad label
  EXPECT_EQ(graph.num_edges(), 4u);

  EXPECT_TRUE(graph.AddEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(1, 0));
  EXPECT_EQ(graph.degree(0), 2);
  EXPECT_EQ(graph.num_edges(), 5u);

  EXPECT_TRUE(graph.RemoveEdge(2, 3));
  EXPECT_FALSE(graph.HasEdge(2, 3));
  EXPECT_EQ(graph.degree(2), 1);
  EXPECT_EQ(graph.num_edges(), 4u);

  const NodeId p = graph.AddNode(1);
  EXPECT_EQ(p, 5);
  EXPECT_EQ(graph.label(p), 1);
  EXPECT_EQ(graph.degree(p), 0);
  EXPECT_TRUE(graph.AddEdge(p, 0));
  EXPECT_EQ(graph.degree(p), 1);

  std::vector<NodeId> neighbors;
  graph.AppendNeighbors(0, &neighbors);
  std::sort(neighbors.begin(), neighbors.end());
  EXPECT_EQ(neighbors, (std::vector<NodeId>{1, 2, 5}));
}

TEST(DynamicGraphTest, AddCancelsRemovalAndViceVersa) {
  DynamicGraph graph(PathGraph());
  EXPECT_TRUE(graph.RemoveEdge(2, 3));
  EXPECT_TRUE(graph.AddEdge(2, 3));  // re-add a removed base edge
  EXPECT_TRUE(graph.HasEdge(2, 3));
  EXPECT_EQ(graph.num_edges(), 4u);
  EXPECT_EQ(graph.overlay_entries(), 0u);  // overlay fully cancelled

  EXPECT_TRUE(graph.AddEdge(0, 1));
  EXPECT_TRUE(graph.RemoveEdge(0, 1));  // remove an overlay-added edge
  EXPECT_FALSE(graph.HasEdge(0, 1));
  EXPECT_EQ(graph.overlay_entries(), 0u);
}

TEST(DynamicGraphTest, MaterializeMatchesRebuiltGraph) {
  DynamicGraph graph(PathGraph());
  EXPECT_TRUE(graph.AddEdge(0, 3));
  EXPECT_TRUE(graph.RemoveEdge(3, 4));
  const NodeId p = graph.AddNode(1);
  EXPECT_TRUE(graph.AddEdge(p, 4));

  const HetGraph expected =
      MakeGraph({"author", "paper"}, {0, 0, 1, 1, 1, 1},
                {{0, 2}, {2, 3}, {4, 1}, {0, 3}, {5, 4}});
  const HetGraph& actual = graph.Materialize();
  ASSERT_EQ(actual.num_nodes(), expected.num_nodes());
  ASSERT_EQ(actual.num_edges(), expected.num_edges());
  for (NodeId v = 0; v < expected.num_nodes(); ++v) {
    EXPECT_EQ(actual.label(v), expected.label(v));
    std::span<const NodeId> a = actual.neighbors(v);
    std::span<const NodeId> e = expected.neighbors(v);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), e.begin(), e.end()))
        << "adjacency mismatch at node " << v;
  }
}

TEST(DynamicGraphTest, CompactPreservesGraphAndClearsOverlay) {
  DynamicGraph graph(PathGraph());
  EXPECT_TRUE(graph.AddEdge(0, 3));
  EXPECT_TRUE(graph.RemoveEdge(0, 2));
  const NodeId p = graph.AddNode(0);
  EXPECT_TRUE(graph.AddEdge(p, 2));
  EXPECT_GT(graph.overlay_entries(), 0u);

  const size_t edges_before = graph.num_edges();
  graph.Compact();
  EXPECT_EQ(graph.overlay_entries(), 0u);
  EXPECT_EQ(graph.num_edges(), edges_before);
  EXPECT_EQ(graph.base().num_nodes(), 6);
  EXPECT_TRUE(graph.HasEdge(0, 3));
  EXPECT_FALSE(graph.HasEdge(0, 2));
  EXPECT_TRUE(graph.HasEdge(p, 2));

  // Mutation keeps working on the compacted base.
  EXPECT_TRUE(graph.AddEdge(0, 2));
  EXPECT_TRUE(graph.HasEdge(0, 2));
}

// ---------------------------------------------------------------------------
// Delta-log codec

std::vector<DeltaOp> SampleBatch() {
  return {DeltaOp::AddNode(1), DeltaOp::AddEdge(5, 2),
          DeltaOp::RemoveEdge(3, 4), DeltaOp::AddNode(0)};
}

TEST(DeltaLogTest, BatchPayloadRoundTripsAndIsCanonical) {
  const std::vector<DeltaOp> ops = SampleBatch();
  const std::string payload = EncodeBatchPayload(ops);
  std::vector<DeltaOp> decoded;
  ASSERT_TRUE(DecodeBatchPayload(
      {reinterpret_cast<const uint8_t*>(payload.data()), payload.size()},
      &decoded));
  EXPECT_EQ(decoded, ops);
  EXPECT_EQ(EncodeBatchPayload(decoded), payload);
}

TEST(DeltaLogTest, DecodeRejectsDamage) {
  const std::string payload = EncodeBatchPayload(SampleBatch());
  std::vector<DeltaOp> decoded;
  // Truncation.
  EXPECT_FALSE(DecodeBatchPayload(
      {reinterpret_cast<const uint8_t*>(payload.data()), payload.size() - 1},
      &decoded));
  // Trailing garbage.
  std::string padded = payload + '\0';
  EXPECT_FALSE(DecodeBatchPayload(
      {reinterpret_cast<const uint8_t*>(padded.data()), padded.size()},
      &decoded));
  // Unknown op kind.
  std::string bad_kind = payload;
  bad_kind[4] = '\x07';
  EXPECT_FALSE(DecodeBatchPayload(
      {reinterpret_cast<const uint8_t*>(bad_kind.data()), bad_kind.size()},
      &decoded));
}

class DeltaLogFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/delta_log_test.wal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(DeltaLogFileTest, WriteReadRoundTrip) {
  const std::vector<DeltaOp> batch1 = SampleBatch();
  const std::vector<DeltaOp> batch2 = {DeltaOp::AddEdge(1, 2)};
  {
    DeltaLogWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path_, &error)) << error;
    ASSERT_TRUE(writer.Append({batch1.data(), batch1.size()}, &error)) << error;
    ASSERT_TRUE(writer.Append({batch2.data(), batch2.size()}, &error)) << error;
  }
  DeltaLogContents contents = ReadDeltaLog(path_);
  ASSERT_TRUE(contents.ok()) << contents.message;
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.batches.size(), 2u);
  EXPECT_EQ(contents.batches[0], batch1);
  EXPECT_EQ(contents.batches[1], batch2);

  // Reopen + append extends the log.
  {
    DeltaLogWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path_, &error)) << error;
    ASSERT_TRUE(writer.Append({batch1.data(), batch1.size()}, &error)) << error;
  }
  contents = ReadDeltaLog(path_);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents.batches.size(), 3u);
  EXPECT_EQ(contents.batches[2], batch1);
}

TEST_F(DeltaLogFileTest, TornTailIsDroppedAndTruncatedOnReopen) {
  const std::vector<DeltaOp> batch = SampleBatch();
  {
    DeltaLogWriter writer;
    ASSERT_TRUE(writer.Open(path_));
    ASSERT_TRUE(writer.Append({batch.data(), batch.size()}));
  }
  // Simulate a crash mid-append: half a record of garbage at the tail.
  {
    std::FILE* file = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const char torn[] = {0x20, 0x00, 0x00, 0x00, 0x13};
    std::fwrite(torn, 1, sizeof(torn), file);
    std::fclose(file);
  }
  DeltaLogContents contents = ReadDeltaLog(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents.torn_tail);
  ASSERT_EQ(contents.batches.size(), 1u);
  EXPECT_EQ(contents.batches[0], batch);

  // Reopening truncates the torn tail; the next append lands cleanly.
  {
    DeltaLogWriter writer;
    ASSERT_TRUE(writer.Open(path_));
    ASSERT_TRUE(writer.Append({batch.data(), batch.size()}));
  }
  contents = ReadDeltaLog(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents.torn_tail);
  EXPECT_EQ(contents.batches.size(), 2u);
}

TEST_F(DeltaLogFileTest, CorruptRecordEndsParseEarly) {
  const std::vector<DeltaOp> batch = SampleBatch();
  {
    DeltaLogWriter writer;
    ASSERT_TRUE(writer.Open(path_));
    ASSERT_TRUE(writer.Append({batch.data(), batch.size()}));
    ASSERT_TRUE(writer.Append({batch.data(), batch.size()}));
  }
  // Flip one payload byte of the second record: its CRC no longer matches.
  DeltaLogContents intact = ReadDeltaLog(path_);
  ASSERT_EQ(intact.batches.size(), 2u);
  {
    std::FILE* file = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    std::fseek(file, -1, SEEK_END);
    std::fputc('\xFF', file);
    std::fclose(file);
  }
  DeltaLogContents contents = ReadDeltaLog(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents.torn_tail);
  EXPECT_EQ(contents.batches.size(), 1u);
}

TEST_F(DeltaLogFileTest, BadMagicAndVersionAreErrors) {
  {
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    std::fwrite("NOTADLOG\x01\x00\x00\x00\x00\x00\x00\x00", 1, 16, file);
    std::fclose(file);
  }
  EXPECT_EQ(ReadDeltaLog(path_).error, DeltaLogErrorCode::kBadMagic);
  {
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    std::fwrite("HSGFDLTA\x63\x00\x00\x00\x00\x00\x00\x00", 1, 16, file);
    std::fclose(file);
  }
  EXPECT_EQ(ReadDeltaLog(path_).error, DeltaLogErrorCode::kBadVersion);
  EXPECT_EQ(ReadDeltaLog(path_ + ".does-not-exist").error,
            DeltaLogErrorCode::kIoError);
}

// ---------------------------------------------------------------------------
// Dirty tracker

TEST(DirtyTrackerTest, CoversEmaxMinusOneHops) {
  // Path 0-1-2-3-4; touch node 4. With emax edges per subgraph, roots up to
  // emax-1 hops from a touched endpoint may include it.
  DynamicGraph graph(MakeGraph({"x"}, {0, 0, 0, 0, 0},
                               {{0, 1}, {1, 2}, {2, 3}, {3, 4}}));
  const std::vector<NodeId> sources = {4};
  EXPECT_EQ(CollectDirtyRoots(graph, {sources.data(), 1}, /*max_edges=*/1,
                              /*max_degree=*/0),
            (std::vector<NodeId>{4}));
  EXPECT_EQ(CollectDirtyRoots(graph, {sources.data(), 1}, 2, 0),
            (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(CollectDirtyRoots(graph, {sources.data(), 1}, 3, 0),
            (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(CollectDirtyRoots(graph, {sources.data(), 1}, 10, 0),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(DirtyTrackerTest, BlockedIntermediatesStopExpansion) {
  // Star center 1 with leaves {0, 2, 3, 4} plus a tail 4-5. Center degree 4.
  DynamicGraph graph(MakeGraph({"x"}, {0, 0, 0, 0, 0, 0},
                               {{0, 1}, {1, 2}, {1, 3}, {1, 4}, {4, 5}}));
  const std::vector<NodeId> sources = {0};
  // Unblocked: BFS from 0 reaches the whole star within 2 hops.
  EXPECT_EQ(CollectDirtyRoots(graph, {sources.data(), 1}, 3, 0),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));
  // dmax=3 blocks the center as an *intermediate*: it is still itself a
  // candidate root (roots are dmax-exempt), but nothing expands through it.
  EXPECT_EQ(CollectDirtyRoots(graph, {sources.data(), 1}, 3, 3),
            (std::vector<NodeId>{0, 1}));
  // A blocked *source* still expands (the endpoint itself may be blocked in
  // a subgraph; its neighbours see it with no intermediate hops).
  const std::vector<NodeId> center = {1};
  EXPECT_EQ(CollectDirtyRoots(graph, {center.data(), 1}, 2, 3),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(DirtyTrackerTest, DirectedUsesBothOrientationsAndTotalDegree) {
  // Arcs 0->1, 2->1, 1->3: the directed census traverses arcs both ways, so
  // the reverse BFS from {3} must reach 0 and 2 through node 1.
  graph::DiGraphBuilder builder({"x"});
  builder.AddNodes(0, 4);
  builder.AddArc(0, 1);
  builder.AddArc(2, 1);
  builder.AddArc(1, 3);
  const graph::DirectedHetGraph digraph = std::move(builder).Build();
  const std::vector<NodeId> sources = {3};
  EXPECT_EQ(CollectDirtyRootsDirected(digraph, {sources.data(), 1}, 3, 0),
            (std::vector<NodeId>{0, 1, 2, 3}));
  // total_degree(1) == 3 > dmax=2 blocks expansion through node 1.
  EXPECT_EQ(CollectDirtyRootsDirected(digraph, {sources.data(), 1}, 3, 2),
            (std::vector<NodeId>{1, 3}));
}

// ---------------------------------------------------------------------------
// StreamEngine equivalence: incremental == from-scratch, bit-identical.

core::CensusConfig TestCensusConfig(int max_edges, int max_degree) {
  core::CensusConfig config;
  config.max_edges = max_edges;
  config.max_degree = max_degree;
  return config;
}

// Draws a random batch against the current graph state. Most ops are valid;
// a few intentionally invalid ones exercise deterministic rejection.
std::vector<DeltaOp> RandomBatch(const DynamicGraph& graph, util::Rng& rng,
                                 int size) {
  std::vector<DeltaOp> ops;
  for (int i = 0; i < size; ++i) {
    const NodeId n = graph.num_nodes();
    const uint64_t pick = rng.UniformInt(10);
    if (pick < 2) {
      ops.push_back(DeltaOp::AddNode(
          static_cast<Label>(rng.UniformInt(graph.num_labels()))));
    } else if (pick < 7) {
      ops.push_back(
          DeltaOp::AddEdge(static_cast<NodeId>(rng.UniformInt(n)),
                           static_cast<NodeId>(rng.UniformInt(n))));
    } else {
      ops.push_back(
          DeltaOp::RemoveEdge(static_cast<NodeId>(rng.UniformInt(n)),
                              static_cast<NodeId>(rng.UniformInt(n))));
    }
  }
  return ops;
}

using BatchMaker =
    std::function<std::vector<DeltaOp>(const DynamicGraph&, util::Rng&, int)>;

// The core property check: after a sequence of random batches, every node's
// served counts are bit-identical to a from-scratch census of the mutated
// graph. Nodes the engine never re-censused must still match — that is the
// dirty-set completeness claim (their census did not change). The engine's
// stream.* metrics go to `metrics` when given.
void CheckEquivalence(
    const HetGraph& base, const core::CensusConfig& config, uint64_t seed,
    int num_batches, int batch_size, const BatchMaker& make_batch = RandomBatch,
    size_t compact_threshold = StreamEngineConfig().compact_threshold,
    util::MetricsRegistry* metrics = nullptr) {
  StreamEngineConfig engine_config;
  engine_config.census = config;
  engine_config.compact_threshold = compact_threshold;
  StreamEngine engine(base, engine_config);
  engine.AttachMetrics(metrics);

  // Baseline: census of every node on the base graph.
  std::vector<std::vector<std::pair<uint64_t, int64_t>>> baseline(
      base.num_nodes());
  {
    core::CensusWorker worker(base, config);
    core::CensusResult result;
    for (NodeId v = 0; v < base.num_nodes(); ++v) {
      worker.Run(v, result);
      baseline[v] = CountsOf(result);
    }
  }

  // Mirror graph: same deltas applied to an independent DynamicGraph so the
  // test can run a from-scratch census without touching engine internals.
  DynamicGraph mirror(base);
  util::Rng rng(seed);
  uint64_t expected_epoch = 0;

  for (int b = 0; b < num_batches; ++b) {
    const std::vector<DeltaOp> ops = make_batch(mirror, rng, batch_size);
    const StreamEngine::ApplyResult applied =
        engine.ApplyBatch({ops.data(), ops.size()});
    EXPECT_EQ(applied.epoch, ++expected_epoch);
    EXPECT_EQ(applied.applied + applied.rejected, static_cast<int>(ops.size()));

    int mirror_applied = 0;
    for (const DeltaOp& op : ops) {
      if (mirror.Apply(op)) ++mirror_applied;
    }
    EXPECT_EQ(mirror_applied, applied.applied) << "batch " << b;
    ASSERT_EQ(engine.num_nodes(), mirror.num_nodes()) << "batch " << b;

    const HetGraph& fresh_graph = mirror.Materialize();
    core::CensusWorker worker(fresh_graph, config);
    core::CensusResult result;
    for (NodeId v = 0; v < fresh_graph.num_nodes(); ++v) {
      worker.Run(v, result);
      const auto fresh = CountsOf(result);
      if (engine.HasRow(v)) {
        EXPECT_EQ(EngineRowCounts(engine, v), fresh)
            << "batch " << b << " node " << v
            << ": incrementally maintained row diverged from scratch census";
      } else {
        // Never re-censused => the batch sequence must not have changed it.
        ASSERT_LT(static_cast<size_t>(v), baseline.size())
            << "new node " << v << " has no maintained row";
        EXPECT_EQ(baseline[v], fresh)
            << "batch " << b << " node " << v
            << ": census changed but the dirty tracker missed it";
      }
    }
  }
}

TEST(StreamEquivalenceTest, UndirectedNoDmax) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 17);
  CheckEquivalence(base, TestCensusConfig(3, 0), /*seed=*/101,
                   /*num_batches=*/6, /*batch_size=*/5);
}

TEST(StreamEquivalenceTest, UndirectedWithDmax) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 18);
  CheckEquivalence(base, TestCensusConfig(3, 4), /*seed=*/202,
                   /*num_batches=*/6, /*batch_size=*/5);
}

TEST(StreamEquivalenceTest, ImdbSchemaMaskedStartLabel) {
  const HetGraph base = data::MakeNetwork(data::ImdbLikeSchema(0.04), 19);
  core::CensusConfig config = TestCensusConfig(3, 5);
  config.mask_start_label = true;
  CheckEquivalence(base, config, /*seed=*/303, /*num_batches=*/5,
                   /*batch_size=*/6);
}

// ---------------------------------------------------------------------------
// Delta path: a dirty root with a maintained row is updated by the subsets
// through the batch's net-changed edges; first touches, roots a dmax
// crossing reaches and roots at the subgraph budget are re-censused in full.
// Each case runs CheckEquivalence long enough that most dirty roots already
// have a row, and requires that the delta path actually ran.

// A random existing edge of `graph` (a removal the engine accepts), or an
// AddEdge between random nodes when the draw lands on an isolated node.
DeltaOp RemoveExistingEdge(const DynamicGraph& graph, util::Rng& rng) {
  const NodeId u = static_cast<NodeId>(rng.UniformInt(graph.num_nodes()));
  std::vector<NodeId> neighbors;
  graph.AppendNeighbors(u, &neighbors);
  if (neighbors.empty()) {
    return DeltaOp::AddEdge(u, static_cast<NodeId>(
                                   rng.UniformInt(graph.num_nodes())));
  }
  return DeltaOp::RemoveEdge(u, neighbors[rng.UniformInt(neighbors.size())]);
}

// Edge churn: adds between random nodes and removals of existing edges.
std::vector<DeltaOp> ChurnBatch(const DynamicGraph& graph, util::Rng& rng,
                                int size) {
  std::vector<DeltaOp> ops;
  for (int i = 0; i < size; ++i) {
    if (rng.Bernoulli(0.5)) {
      ops.push_back(RemoveExistingEdge(graph, rng));
    } else {
      const NodeId n = graph.num_nodes();
      ops.push_back(DeltaOp::AddEdge(static_cast<NodeId>(rng.UniformInt(n)),
                                     static_cast<NodeId>(rng.UniformInt(n))));
    }
  }
  return ops;
}

// Churn plus an edge added and removed again in the same batch: no net
// change for that edge, but its endpoints are dirty.
std::vector<DeltaOp> AddThenRemoveBatch(const DynamicGraph& graph,
                                        util::Rng& rng, int size) {
  std::vector<DeltaOp> ops = ChurnBatch(graph, rng, size);
  const NodeId n = graph.num_nodes();
  const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
  const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
  ops.insert(ops.begin() + static_cast<long>(rng.UniformInt(ops.size() + 1)),
             {DeltaOp::AddEdge(u, v), DeltaOp::RemoveEdge(u, v)});
  return ops;
}

// Churn plus an existing edge removed and added back in the same batch.
std::vector<DeltaOp> RemoveThenReAddBatch(const DynamicGraph& graph,
                                          util::Rng& rng, int size) {
  std::vector<DeltaOp> ops = ChurnBatch(graph, rng, size);
  const DeltaOp removal = RemoveExistingEdge(graph, rng);
  ops.insert(ops.begin() + static_cast<long>(rng.UniformInt(ops.size() + 1)),
             {DeltaOp::RemoveEdge(removal.u, removal.v),
              DeltaOp::AddEdge(removal.u, removal.v)});
  return ops;
}

// Churn plus a new node wired to two existing nodes in the same batch.
std::vector<DeltaOp> NodeThenEdgesBatch(const DynamicGraph& graph,
                                        util::Rng& rng, int size) {
  std::vector<DeltaOp> ops = ChurnBatch(graph, rng, size);
  const NodeId n = graph.num_nodes();
  ops.push_back(DeltaOp::AddNode(
      static_cast<Label>(rng.UniformInt(graph.num_labels()))));
  for (int k = 0; k < 2; ++k) {
    ops.push_back(
        DeltaOp::AddEdge(n, static_cast<NodeId>(rng.UniformInt(n))));
  }
  return ops;
}

// CheckEquivalence, returning the engine's stream.* metrics over the run.
util::MetricsSnapshot CheckDeltaEquivalence(
    const HetGraph& base, const core::CensusConfig& config, uint64_t seed,
    int num_batches, int batch_size, const BatchMaker& make_batch,
    size_t compact_threshold = StreamEngineConfig().compact_threshold) {
  util::MetricsRegistry metrics;
  CheckEquivalence(base, config, seed, num_batches, batch_size, make_batch,
                   compact_threshold, &metrics);
  return metrics.Snapshot();
}

// Every dirty root was updated by delta or re-censused for one of the three
// reasons, and the delta path ran.
void ExpectDeltaPath(const util::MetricsSnapshot& metrics) {
  const int64_t delta = metrics.Counter("stream.delta_roots");
  EXPECT_GT(delta, 0) << "no dirty root went through the delta path";
  EXPECT_EQ(delta + metrics.Counter("stream.full_census_roots.first_touch") +
                metrics.Counter("stream.full_census_roots.dmax_crossing") +
                metrics.Counter("stream.full_census_roots.budget"),
            metrics.Counter("stream.dirty_roots"));
  const util::HistogramSnapshot* apply_micros =
      metrics.Histogram("stream.apply_batch_micros");
  ASSERT_NE(apply_micros, nullptr);
  EXPECT_EQ(apply_micros->count, metrics.Counter("stream.batches"));
}

TEST(StreamDeltaTest, NoDmax) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 31);
  const util::MetricsSnapshot metrics = CheckDeltaEquivalence(
      base, TestCensusConfig(3, 0), /*seed=*/501, /*num_batches=*/40,
      /*batch_size=*/4, ChurnBatch);
  ExpectDeltaPath(metrics);
  EXPECT_EQ(metrics.Counter("stream.full_census_roots.dmax_crossing"), 0);
}

TEST(StreamDeltaTest, LowDmaxCrossesIt) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 32);
  const util::MetricsSnapshot metrics = CheckDeltaEquivalence(
      base, TestCensusConfig(3, 3), /*seed=*/502, /*num_batches=*/40,
      /*batch_size=*/4, ChurnBatch);
  ExpectDeltaPath(metrics);
  EXPECT_GT(metrics.Counter("stream.full_census_roots.dmax_crossing"), 0);
}

TEST(StreamDeltaTest, MaskedStartLabel) {
  const HetGraph base = data::MakeNetwork(data::ImdbLikeSchema(0.04), 33);
  core::CensusConfig config = TestCensusConfig(3, 5);
  config.mask_start_label = true;
  ExpectDeltaPath(CheckDeltaEquivalence(base, config, /*seed=*/503,
                                   /*num_batches=*/40, /*batch_size=*/4,
                                   ChurnBatch));
}

TEST(StreamDeltaTest, SubgraphBudget) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 34);
  core::CensusConfig config = TestCensusConfig(3, 0);
  config.max_subgraphs = 4000;
  const util::MetricsSnapshot metrics =
      CheckDeltaEquivalence(base, config, /*seed=*/504, /*num_batches=*/40,
                       /*batch_size=*/4, ChurnBatch);
  ExpectDeltaPath(metrics);
  EXPECT_GT(metrics.Counter("stream.full_census_roots.budget"), 0);
}

TEST(StreamDeltaTest, AddThenRemoveInOneBatch) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 35);
  ExpectDeltaPath(CheckDeltaEquivalence(base, TestCensusConfig(3, 4),
                                   /*seed=*/505, /*num_batches=*/40,
                                   /*batch_size=*/3, AddThenRemoveBatch));
}

TEST(StreamDeltaTest, RemoveThenReAddInOneBatch) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 36);
  ExpectDeltaPath(CheckDeltaEquivalence(base, TestCensusConfig(3, 4),
                                   /*seed=*/506, /*num_batches=*/40,
                                   /*batch_size=*/3, RemoveThenReAddBatch));
}

TEST(StreamDeltaTest, NewNodeThenEdgesInOneBatch) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 37);
  ExpectDeltaPath(CheckDeltaEquivalence(base, TestCensusConfig(3, 4),
                                   /*seed=*/507, /*num_batches=*/40,
                                   /*batch_size=*/3, NodeThenEdgesBatch));
}

TEST(StreamDeltaTest, CompactionOnEveryBatch) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 38);
  ExpectDeltaPath(CheckDeltaEquivalence(base, TestCensusConfig(3, 4),
                                   /*seed=*/508, /*num_batches=*/40,
                                   /*batch_size=*/4, ChurnBatch,
                                   /*compact_threshold=*/0));
}

TEST(StreamEquivalenceTest, SurvivesCompaction) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 20);
  StreamEngineConfig engine_config;
  engine_config.census = TestCensusConfig(3, 0);
  engine_config.compact_threshold = 4;  // compact on nearly every batch
  StreamEngine engine(base, engine_config);
  DynamicGraph mirror(base);
  util::Rng rng(404);
  for (int b = 0; b < 5; ++b) {
    const std::vector<DeltaOp> ops = RandomBatch(mirror, rng, 4);
    engine.ApplyBatch({ops.data(), ops.size()});
    for (const DeltaOp& op : ops) mirror.Apply(op);
  }
  const HetGraph& fresh_graph = mirror.Materialize();
  core::CensusWorker worker(fresh_graph, engine_config.census);
  core::CensusResult result;
  for (NodeId v = 0; v < fresh_graph.num_nodes(); ++v) {
    if (!engine.HasRow(v)) continue;
    worker.Run(v, result);
    EXPECT_EQ(EngineRowCounts(engine, v), CountsOf(result)) << "node " << v;
  }
}

// ---------------------------------------------------------------------------
// Directed equivalence: the dirty tracker drives a test-level incremental
// maintenance loop over a DirectedHetGraph (the engine itself is undirected;
// CollectDirtyRootsDirected is the directed building block).

graph::DirectedHetGraph BuildDigraph(
    int num_nodes, const std::vector<Label>& labels,
    const std::set<std::pair<NodeId, NodeId>>& arcs) {
  graph::DiGraphBuilder builder({"a", "b"});
  for (int v = 0; v < num_nodes; ++v) builder.AddNode(labels[v]);
  for (const auto& [u, v] : arcs) builder.AddArc(u, v);
  return std::move(builder).Build();
}

void CheckDirectedEquivalence(int max_degree) {
  const graph::DirectedHetGraph base =
      data::MakeDirectedNetwork(data::ImdbLikeSchema(0.03), 23);
  const int num_nodes = base.num_nodes();
  std::vector<Label> labels(num_nodes);
  std::set<std::pair<NodeId, NodeId>> arcs;
  for (NodeId v = 0; v < num_nodes; ++v) {
    labels[v] = base.label(v);
    for (NodeId u : base.successors(v)) arcs.insert({v, u});
  }
  // Squash labels into the two-letter test alphabet.
  for (Label& l : labels) l = static_cast<Label>(l % 2);

  const core::CensusConfig config = TestCensusConfig(3, max_degree);
  graph::DirectedHetGraph current = BuildDigraph(num_nodes, labels, arcs);

  // Full sweep on the base.
  std::vector<std::vector<std::pair<uint64_t, int64_t>>> rows(num_nodes);
  {
    core::DirectedCensusWorker worker(current, config);
    core::CensusResult result;
    for (NodeId v = 0; v < num_nodes; ++v) {
      worker.Run(v, result);
      rows[v] = CountsOf(result);
    }
  }

  util::Rng rng(71);
  for (int b = 0; b < 5; ++b) {
    // Random arc flips: add if absent, remove if present.
    std::vector<NodeId> touched;
    std::set<std::pair<NodeId, NodeId>> next_arcs = arcs;
    for (int i = 0; i < 6; ++i) {
      const NodeId u = static_cast<NodeId>(rng.UniformInt(num_nodes));
      const NodeId v = static_cast<NodeId>(rng.UniformInt(num_nodes));
      if (u == v) continue;
      const std::pair<NodeId, NodeId> arc{u, v};
      if (next_arcs.count(arc) > 0) {
        next_arcs.erase(arc);
      } else {
        next_arcs.insert(arc);
      }
      touched.push_back(u);
      touched.push_back(v);
    }
    graph::DirectedHetGraph next = BuildDigraph(num_nodes, labels, next_arcs);

    // Two-pass dirty set: pre-mutation degrees and post-mutation degrees.
    std::vector<NodeId> dirty = CollectDirtyRootsDirected(
        current, {touched.data(), touched.size()}, config.max_edges,
        config.max_degree);
    const std::vector<NodeId> post_dirty = CollectDirtyRootsDirected(
        next, {touched.data(), touched.size()}, config.max_edges,
        config.max_degree);
    dirty.insert(dirty.end(), post_dirty.begin(), post_dirty.end());
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

    // Incremental maintenance: re-census exactly the dirty roots.
    {
      core::DirectedCensusWorker worker(next, config);
      core::CensusResult result;
      for (NodeId v : dirty) {
        worker.Run(v, result);
        rows[v] = CountsOf(result);
      }
    }

    // Equivalence: every maintained row matches a from-scratch census.
    {
      core::DirectedCensusWorker worker(next, config);
      core::CensusResult result;
      for (NodeId v = 0; v < num_nodes; ++v) {
        worker.Run(v, result);
        EXPECT_EQ(rows[v], CountsOf(result))
            << "batch " << b << " node " << v << " dmax " << max_degree;
      }
    }
    arcs = std::move(next_arcs);
    current = std::move(next);
  }
}

TEST(StreamEquivalenceTest, DirectedNoDmax) { CheckDirectedEquivalence(0); }

TEST(StreamEquivalenceTest, DirectedWithDmax) { CheckDirectedEquivalence(4); }

// ---------------------------------------------------------------------------
// Epoch, vocabulary, and crash recovery

TEST(StreamEngineTest, EpochAdvancesEvenOnAllRejectedBatch) {
  StreamEngineConfig config;
  config.census = TestCensusConfig(3, 0);
  StreamEngine engine(PathGraph(), config);
  EXPECT_EQ(engine.epoch(), 0u);

  const std::vector<DeltaOp> bad = {DeltaOp::AddEdge(0, 0),
                                    DeltaOp::RemoveEdge(0, 4)};
  const StreamEngine::ApplyResult result =
      engine.ApplyBatch({bad.data(), bad.size()});
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_EQ(result.applied, 0);
  EXPECT_EQ(result.rejected, 2);
  EXPECT_TRUE(result.dirty_roots.empty());
  EXPECT_FALSE(result.first_error.empty());
  EXPECT_EQ(engine.overlay_rows(), 0u);
}

TEST(StreamEngineTest, VocabularyGrowsByStableUnion) {
  StreamEngineConfig config;
  config.census = TestCensusConfig(3, 0);
  StreamEngine engine(PathGraph(), config);

  // Seed with the base census vocabulary of node 0, in a fixed order.
  core::CensusResult result = core::RunCensus(PathGraph(), 0, config.census);
  std::vector<uint64_t> seed_hashes;
  result.counts.ForEach(
      [&](uint64_t hash, int64_t) { seed_hashes.push_back(hash); });
  std::sort(seed_hashes.begin(), seed_hashes.end());
  engine.SeedVocabulary({seed_hashes.data(), seed_hashes.size()});
  ASSERT_EQ(engine.vocabulary(), seed_hashes);

  std::vector<uint64_t> previous = engine.vocabulary();
  util::Rng rng(55);
  DynamicGraph mirror(PathGraph());
  for (int b = 0; b < 6; ++b) {
    const std::vector<DeltaOp> ops = RandomBatch(mirror, rng, 3);
    engine.ApplyBatch({ops.data(), ops.size()});
    for (const DeltaOp& op : ops) mirror.Apply(op);
    const std::vector<uint64_t> current = engine.vocabulary();
    // Stable union: the previous vocabulary is always a strict prefix —
    // existing columns never move or disappear.
    ASSERT_GE(current.size(), previous.size());
    EXPECT_TRUE(std::equal(previous.begin(), previous.end(), current.begin()))
        << "column assignment moved at batch " << b;
    previous = current;
  }
}

TEST(StreamEngineTest, DenseRowAppliesLog1pExactly) {
  StreamEngineConfig config;
  config.census = TestCensusConfig(3, 0);
  config.log1p_transform = true;
  StreamEngine engine(PathGraph(), config);
  const std::vector<DeltaOp> ops = {DeltaOp::AddEdge(0, 4)};
  const StreamEngine::ApplyResult applied =
      engine.ApplyBatch({ops.data(), ops.size()});
  ASSERT_GT(applied.dirty_roots.size(), 0u);

  const NodeId root = applied.dirty_roots[0];
  const auto row = engine.DenseRow(root);
  ASSERT_TRUE(row.has_value());
  const auto counts = engine.RowCounts(root);
  ASSERT_TRUE(counts.has_value());
  std::vector<double> expected(engine.num_columns(), 0.0);
  for (const auto& [column, count] : *counts) {
    expected[column] = std::log1p(static_cast<double>(count));
  }
  // Bit-identical, not approximately equal.
  ASSERT_EQ(row->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*row)[i], expected[i]) << "column " << i;
  }
}

TEST(StreamEngineTest, CrashRecoveryReplaysToIdenticalState) {
  const HetGraph base = data::MakeNetwork(data::LoadLikeSchema(0.03), 29);
  StreamEngineConfig config;
  config.census = TestCensusConfig(3, 4);

  const std::string log_path = ::testing::TempDir() + "/recovery_test.wal";
  std::remove(log_path.c_str());

  // Engine A: write-ahead log each batch, then apply — including rejected
  // ops, which replay must reproduce deterministically. Random batches (node
  // additions, and removals of mostly absent edges) alternate with edge
  // churn, and there are enough of them that many roots are dirtied again
  // and updated by delta.
  constexpr int kBatches = 32;
  StreamEngine original(base, config);
  util::MetricsRegistry original_metrics;
  original.AttachMetrics(&original_metrics);
  DynamicGraph mirror(base);
  int rejected = 0;
  {
    DeltaLogWriter writer;
    ASSERT_TRUE(writer.Open(log_path));
    util::Rng rng(911);
    for (int b = 0; b < kBatches; ++b) {
      std::vector<DeltaOp> ops = b % 2 == 0 ? RandomBatch(mirror, rng, 4)
                                            : ChurnBatch(mirror, rng, 4);
      if (b == 2) ops.push_back(DeltaOp::AddEdge(0, 0));  // guaranteed reject
      ASSERT_TRUE(writer.Append({ops.data(), ops.size()}));
      rejected += original.ApplyBatch({ops.data(), ops.size()}).rejected;
      for (const DeltaOp& op : ops) mirror.Apply(op);
    }
  }
  // The log holds node additions and rejections beyond the self loop.
  EXPECT_GT(original.num_nodes(), base.num_nodes());
  EXPECT_GT(rejected, 1);

  // Engine B: fresh from the same base, replayed from the log.
  StreamEngine replayed(base, config);
  util::MetricsRegistry replayed_metrics;
  replayed.AttachMetrics(&replayed_metrics);
  const DeltaLogContents contents = ReadDeltaLog(log_path);
  ASSERT_TRUE(contents.ok()) << contents.message;
  ASSERT_EQ(contents.batches.size(), static_cast<size_t>(kBatches));
  for (const auto& batch : contents.batches) {
    replayed.ApplyBatch({batch.data(), batch.size()});
  }
  EXPECT_GT(original_metrics.Snapshot().Counter("stream.delta_roots"), 0);
  EXPECT_GT(replayed_metrics.Snapshot().Counter("stream.delta_roots"), 0);

  EXPECT_EQ(replayed.epoch(), original.epoch());
  EXPECT_EQ(replayed.num_nodes(), original.num_nodes());
  EXPECT_EQ(replayed.vocabulary(), original.vocabulary());
  EXPECT_EQ(replayed.overlay_rows(), original.overlay_rows());
  // Both equal the live engine and a from-scratch census of the final graph.
  const HetGraph& fresh_graph = mirror.Materialize();
  core::CensusWorker worker(fresh_graph, config.census);
  core::CensusResult fresh;
  for (NodeId v = 0; v < original.num_nodes(); ++v) {
    ASSERT_EQ(replayed.HasRow(v), original.HasRow(v)) << "node " << v;
    if (!original.HasRow(v)) continue;
    EXPECT_EQ(*replayed.RowCounts(v), *original.RowCounts(v)) << "node " << v;
    EXPECT_EQ(*replayed.DenseRow(v), *original.DenseRow(v)) << "node " << v;
    worker.Run(v, fresh);
    EXPECT_EQ(EngineRowCounts(replayed, v), CountsOf(fresh)) << "node " << v;
  }
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace hsgf::stream
