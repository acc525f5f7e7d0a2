// Tests for the out-of-core graph store (src/gstore): varint/delta codec
// known answers and properties, HSGFCGRF container round trips (undirected
// and directed), block packing, the decoded-block cache (hits, eviction,
// pinned-span safety), typed corruption errors, and census/extractor
// equivalence against the in-memory CSR — including multi-threaded
// extraction through per-worker views.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/extractor.h"
#include "graph/builder.h"
#include "graph/digraph.h"
#include "graph/het_graph.h"
#include "gstore/block_cache.h"
#include "gstore/cgraph_writer.h"
#include "gstore/compressed_graph.h"
#include "gstore/varint.h"
#include "stream/dynamic_graph.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace hsgf::gstore {
namespace {

using graph::HetGraph;
using graph::Label;
using graph::MakeGraph;
using graph::NodeId;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

HetGraph RandomGraph(util::Rng& rng, NodeId num_nodes, int num_labels,
                     double density) {
  std::vector<Label> labels(num_nodes);
  for (auto& l : labels) l = static_cast<Label>(rng.UniformInt(num_labels));
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = u + 1; v < num_nodes; ++v) {
      if (rng.Bernoulli(density)) edges.emplace_back(u, v);
    }
  }
  std::vector<std::string> names;
  for (int l = 0; l < num_labels; ++l) names.push_back(std::string(1, 'a' + l));
  return MakeGraph(names, labels, edges);
}

// --- Codec ------------------------------------------------------------------

TEST(VarintTest, KnownAnswers) {
  const struct {
    uint64_t value;
    std::vector<uint8_t> bytes;
  } kCases[] = {
      {0, {0x00}},
      {1, {0x01}},
      {127, {0x7f}},
      {128, {0x80, 0x01}},
      {300, {0xac, 0x02}},
      {16383, {0xff, 0x7f}},
      {16384, {0x80, 0x80, 0x01}},
      {UINT64_MAX,
       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
  };
  for (const auto& c : kCases) {
    std::vector<uint8_t> encoded;
    PutUvarint(encoded, c.value);
    EXPECT_EQ(encoded, c.bytes) << c.value;
    const uint8_t* p = encoded.data();
    uint64_t decoded = 0;
    ASSERT_TRUE(GetUvarint(&p, encoded.data() + encoded.size(), &decoded));
    EXPECT_EQ(decoded, c.value);
    EXPECT_EQ(p, encoded.data() + encoded.size());
  }
}

TEST(VarintTest, RejectsTruncationAndOverflow) {
  // Truncated: continuation bit set but no next byte.
  {
    const uint8_t bytes[] = {0x80};
    const uint8_t* p = bytes;
    uint64_t v;
    EXPECT_FALSE(GetUvarint(&p, bytes + 1, &v));
  }
  // Empty input.
  {
    const uint8_t bytes[] = {0x00};
    const uint8_t* p = bytes;
    uint64_t v;
    EXPECT_FALSE(GetUvarint(&p, bytes, &v));
  }
  // 10th byte carrying bits 64+ (would overflow uint64).
  {
    const uint8_t bytes[] = {0xff, 0xff, 0xff, 0xff, 0xff,
                             0xff, 0xff, 0xff, 0xff, 0x02};
    const uint8_t* p = bytes;
    uint64_t v;
    EXPECT_FALSE(GetUvarint(&p, bytes + sizeof(bytes), &v));
  }
  // 11-byte encoding (never canonical).
  {
    const uint8_t bytes[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                             0x80, 0x80, 0x80, 0x80, 0x01};
    const uint8_t* p = bytes;
    uint64_t v;
    EXPECT_FALSE(GetUvarint(&p, bytes + sizeof(bytes), &v));
  }
}

TEST(VarintTest, ZigZagKnownAnswers) {
  EXPECT_EQ(ZigZag(0), 0u);
  EXPECT_EQ(ZigZag(-1), 1u);
  EXPECT_EQ(ZigZag(1), 2u);
  EXPECT_EQ(ZigZag(-2), 3u);
  EXPECT_EQ(ZigZag(INT64_MAX), UINT64_MAX - 1);
  EXPECT_EQ(ZigZag(INT64_MIN), UINT64_MAX);
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{42}, int64_t{-31337},
                    int64_t{INT64_MAX}, int64_t{INT64_MIN}}) {
    EXPECT_EQ(UnZigZag(ZigZag(v)), v);
  }
}

void ExpectAdjacencyRoundTrip(const std::vector<NodeId>& list) {
  std::vector<uint8_t> encoded;
  EncodeAdjacency(list, encoded);
  std::vector<NodeId> decoded(list.size());
  const uint8_t* p = encoded.data();
  const uint8_t* end = encoded.data() + encoded.size();
  ASSERT_TRUE(DecodeAdjacency(&p, end, list.size(), decoded.data()));
  EXPECT_EQ(p, end);
  EXPECT_EQ(decoded, list);
}

TEST(AdjacencyCodecTest, KnownShapes) {
  // Empty list.
  ExpectAdjacencyRoundTrip({});
  // Single hub neighbor.
  ExpectAdjacencyRoundTrip({7});
  // Ascending run (within one label).
  ExpectAdjacencyRoundTrip({1, 2, 3, 1000, 100000});
  // Label-run boundary: id drops when the next label's run begins. The
  // decoder must reproduce the exact (label,id)-sorted order, not re-sort.
  ExpectAdjacencyRoundTrip({5, 9, 2000, 2, 3, 1999});
  // Max-degree hub touching the id extremes.
  std::vector<NodeId> hub;
  for (NodeId v = 0; v < 5000; ++v) hub.push_back(v * 400000);
  ExpectAdjacencyRoundTrip(hub);
  ExpectAdjacencyRoundTrip({INT32_MAX, 0, INT32_MAX, 1});
}

TEST(AdjacencyCodecTest, RandomListsWithNegativeDeltas) {
  util::Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<NodeId> list(rng.UniformInt(40));
    for (auto& v : list) {
      v = static_cast<NodeId>(rng.UniformInt(INT32_MAX));
    }
    ExpectAdjacencyRoundTrip(list);
  }
}

TEST(AdjacencyCodecTest, RejectsOutOfRangeIds) {
  // delta sequence decoding to a negative id: zigzag(-1) from prev=0.
  std::vector<uint8_t> encoded;
  PutUvarint(encoded, ZigZag(-1));
  NodeId out[1];
  const uint8_t* p = encoded.data();
  EXPECT_FALSE(
      DecodeAdjacency(&p, encoded.data() + encoded.size(), 1, out));
  // id beyond INT32_MAX.
  encoded.clear();
  PutUvarint(encoded, ZigZag(int64_t{INT32_MAX} + 1));
  p = encoded.data();
  EXPECT_FALSE(
      DecodeAdjacency(&p, encoded.data() + encoded.size(), 1, out));
}

// --- Container round trips --------------------------------------------------

void ExpectSameGraph(const HetGraph& expected, const CompressedGraph& actual) {
  ASSERT_EQ(actual.num_nodes(), expected.num_nodes());
  ASSERT_EQ(actual.num_labels(), expected.num_labels());
  EXPECT_EQ(actual.num_edges(), expected.num_edges());
  EXPECT_EQ(actual.label_names(), expected.label_names());
  EXPECT_FALSE(actual.directed());
  GraphView view = actual.MakeView();
  for (NodeId v = 0; v < expected.num_nodes(); ++v) {
    EXPECT_EQ(actual.label(v), expected.label(v));
    ASSERT_EQ(view.degree(v), expected.degree(v));
    const auto got = view.neighbors(v);
    const auto want = expected.neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    // Order matters: (label, id) sort must survive the round trip exactly.
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "node " << v;
  }
}

TEST(CGraphRoundTripTest, RandomGraphsAcrossBlockSizes) {
  util::Rng rng(987654321);
  const std::string path = TempPath("roundtrip.hscg");
  for (uint32_t block_entries : {1u, 7u, 64u, 1u << 15}) {
    for (int trial = 0; trial < 4; ++trial) {
      HetGraph graph = RandomGraph(rng, 40 + 10 * trial, 3, 0.15);
      CGraphWriterOptions options;
      options.block_target_entries = block_entries;
      CGraphError error;
      ASSERT_TRUE(WriteCompressedGraph(path, graph, &error, options))
          << error.ToString();
      auto compressed = CompressedGraph::Open(path, {}, &error);
      ASSERT_NE(compressed, nullptr) << error.ToString();
      ExpectSameGraph(graph, *compressed);

      // Every block decodes cleanly under the typed verifier too.
      for (uint32_t b = 0; b < compressed->num_blocks(); ++b) {
        EXPECT_TRUE(compressed->VerifyBlock(b, &error)) << error.ToString();
      }

      // Full materialization is bit-identical: same labels, same adjacency.
      HetGraph back = compressed->ToHetGraph();
      ASSERT_EQ(back.num_nodes(), graph.num_nodes());
      EXPECT_EQ(back.num_edges(), graph.num_edges());
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        const auto got = back.neighbors(v);
        const auto want = graph.neighbors(v);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
      }
    }
  }
}

TEST(CGraphRoundTripTest, EdgeShapedGraphs) {
  const std::string path = TempPath("edge.hscg");
  CGraphError error;

  // Empty graph.
  {
    HetGraph graph = MakeGraph({"only"}, {}, {});
    ASSERT_TRUE(WriteCompressedGraph(path, graph, &error)) << error.ToString();
    auto compressed = CompressedGraph::Open(path, {}, &error);
    ASSERT_NE(compressed, nullptr) << error.ToString();
    EXPECT_EQ(compressed->num_nodes(), 0);
    EXPECT_EQ(compressed->num_blocks(), 0u);
  }

  // Isolated nodes only (blocks exist, zero entries).
  {
    HetGraph graph = MakeGraph({"x", "y"}, {0, 1, 0, 1, 1}, {});
    ASSERT_TRUE(WriteCompressedGraph(path, graph, &error)) << error.ToString();
    auto compressed = CompressedGraph::Open(path, {}, &error);
    ASSERT_NE(compressed, nullptr) << error.ToString();
    ExpectSameGraph(graph, *compressed);
    EXPECT_EQ(compressed->num_edges(), 0);
  }

  // A hub whose adjacency exceeds the block target: the run must not split,
  // so the hub gets one oversized block.
  {
    std::vector<Label> labels(101, 0);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v = 1; v <= 100; ++v) edges.emplace_back(0, v);
    HetGraph graph = MakeGraph({"h"}, labels, edges);
    CGraphWriterOptions options;
    options.block_target_entries = 8;
    ASSERT_TRUE(WriteCompressedGraph(path, graph, &error, options))
        << error.ToString();
    auto compressed = CompressedGraph::Open(path, {}, &error);
    ASSERT_NE(compressed, nullptr) << error.ToString();
    ExpectSameGraph(graph, *compressed);
    GraphView view = compressed->MakeView();
    EXPECT_EQ(view.neighbors(0).size(), 100u);
  }
}

TEST(CGraphRoundTripTest, DirectedContainer) {
  util::Rng rng(13579);
  const std::string path = TempPath("directed.hscg");
  graph::DiGraphBuilder builder({"s", "t"});
  const NodeId n = 30;
  for (NodeId v = 0; v < n; ++v) {
    builder.AddNode(static_cast<Label>(rng.UniformInt(2)));
  }
  int arcs = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.Bernoulli(0.12)) {
        builder.AddArc(u, v);
        ++arcs;
      }
    }
  }
  ASSERT_GT(arcs, 0);
  graph::DirectedHetGraph graph = std::move(builder).Build();

  CGraphWriterOptions options;
  options.block_target_entries = 16;
  CGraphError error;
  ASSERT_TRUE(WriteCompressedGraph(path, graph, &error, options))
      << error.ToString();
  auto compressed = CompressedGraph::Open(path, {}, &error);
  ASSERT_NE(compressed, nullptr) << error.ToString();
  ASSERT_TRUE(compressed->directed());
  ASSERT_EQ(compressed->num_nodes(), graph.num_nodes());
  EXPECT_EQ(compressed->num_edges(), graph.num_arcs());

  DirectedGraphView view = compressed->MakeDirectedView();
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(view.label(v), graph.label(v));
    EXPECT_EQ(view.out_degree(v), graph.out_degree(v));
    EXPECT_EQ(view.in_degree(v), graph.in_degree(v));
    EXPECT_EQ(view.total_degree(v), graph.total_degree(v));
    const auto successors = view.successors(v);
    ASSERT_EQ(successors.size(), graph.successors(v).size());
    EXPECT_TRUE(std::equal(successors.begin(), successors.end(),
                           graph.successors(v).begin()));
    const auto predecessors = view.predecessors(v);
    ASSERT_EQ(predecessors.size(), graph.predecessors(v).size());
    EXPECT_TRUE(std::equal(predecessors.begin(), predecessors.end(),
                           graph.predecessors(v).begin()));
  }
}

// --- Cache ------------------------------------------------------------------

TEST(BlockCacheTest, EvictsAndCountsUnderPressure) {
  util::Rng rng(777);
  const std::string path = TempPath("cache.hscg");
  HetGraph graph = RandomGraph(rng, 200, 2, 0.1);
  CGraphWriterOptions woptions;
  woptions.block_target_entries = 16;  // many small blocks
  CGraphError error;
  ASSERT_TRUE(WriteCompressedGraph(path, graph, &error, woptions))
      << error.ToString();

  CGraphOptions roptions;
  roptions.cache_bytes = 1;  // floor: one slot per shard
  auto compressed = CompressedGraph::Open(path, roptions, &error);
  ASSERT_NE(compressed, nullptr) << error.ToString();
  ASSERT_GT(compressed->num_blocks(), 16u);

  util::MetricsRegistry registry;
  compressed->AttachMetrics(&registry);

  // Two sequential sweeps: with only a handful of cache slots and far more
  // blocks than a view's kViewMemoSlots-wide pin memo, the second sweep can
  // be cached by neither the view nor the cache, so blocks decode more than
  // once and evictions must fire. Each node is read through TWO views: the
  // first pays the miss, the second re-requests the same block while it is
  // still resident — a guaranteed hit despite the pin memo (a single view
  // never re-enters the cache for a block still memoized).
  GraphView first = compressed->MakeView();
  GraphView second = compressed->MakeView();
  int64_t checksum = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      for (NodeId y : first.neighbors(v)) checksum += y;
      for (NodeId y : second.neighbors(v)) checksum += y;
    }
  }
  EXPECT_GT(checksum, 0);

  util::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_GT(snapshot.Counter("gstore.blocks_decoded"),
            static_cast<int64_t>(compressed->num_blocks()));
  EXPECT_GT(snapshot.Counter("gstore.cache_evictions"), 0);
  EXPECT_GT(snapshot.Counter("gstore.cache_hits"), 0);
  EXPECT_EQ(snapshot.Counter("gstore.cache_misses"),
            snapshot.Counter("gstore.blocks_decoded"));
  EXPECT_EQ(snapshot.Gauge("gstore.blocks_total"),
            static_cast<double>(compressed->num_blocks()));
  EXPECT_GT(snapshot.Gauge("gstore.bytes_mapped"), 0.0);
}

TEST(BlockCacheTest, SequentialScanIssuesPrefetchWithoutChangingData) {
  util::Rng rng(515151);
  const std::string path = TempPath("prefetch.hscg");
  HetGraph graph = RandomGraph(rng, 200, 2, 0.1);
  CGraphWriterOptions woptions;
  woptions.block_target_entries = 16;
  CGraphError error;
  ASSERT_TRUE(WriteCompressedGraph(path, graph, &error, woptions))
      << error.ToString();
  CGraphOptions roptions;
  roptions.cache_bytes = 1;
  auto compressed = CompressedGraph::Open(path, roptions, &error);
  ASSERT_NE(compressed, nullptr) << error.ToString();
  ASSERT_GT(compressed->num_blocks(), 4u);

  util::MetricsRegistry registry;
  compressed->AttachMetrics(&registry);

  // An id-order sweep walks block 0, 1, 2, ... — every block after the
  // second arrives right after its predecessor, so the view's sequential
  // detector must fire madvise(WILLNEED) for the block ahead on (almost)
  // every step. madvise is a hint: the data read must be exactly the CSR's
  // whether or not the kernel honoured it.
  GraphView view = compressed->MakeView();
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto got = view.neighbors(v);
    const auto want = graph.neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "node " << v;
  }
  const int64_t sequential =
      registry.Snapshot().Counter("gstore.prefetch_issued");
  EXPECT_GE(sequential,
            static_cast<int64_t>(compressed->num_blocks()) / 2);

  // A fresh view starts with no fetch history: one isolated read issues no
  // prefetch (two consecutive blocks are required to call the scan
  // sequential).
  GraphView cold = compressed->MakeView();
  volatile size_t sink = cold.neighbors(0).size();
  (void)sink;
  EXPECT_EQ(registry.Snapshot().Counter("gstore.prefetch_issued"), sequential);
}

TEST(BlockCacheTest, PinnedSpanSurvivesEviction) {
  util::Rng rng(4242);
  const std::string path = TempPath("pinned.hscg");
  HetGraph graph = RandomGraph(rng, 150, 2, 0.12);
  CGraphWriterOptions woptions;
  woptions.block_target_entries = 8;
  CGraphError error;
  ASSERT_TRUE(WriteCompressedGraph(path, graph, &error, woptions))
      << error.ToString();
  CGraphOptions roptions;
  roptions.cache_bytes = 1;
  auto compressed = CompressedGraph::Open(path, roptions, &error);
  ASSERT_NE(compressed, nullptr) << error.ToString();

  // Pin node 0's block in one view, then thrash the cache through another
  // view until that block has certainly been evicted. The pinned span must
  // keep reading the original data (shared_ptr keeps the block alive).
  NodeId pinned_node = 0;
  while (pinned_node < graph.num_nodes() && graph.degree(pinned_node) == 0) {
    ++pinned_node;
  }
  ASSERT_LT(pinned_node, graph.num_nodes());
  GraphView pinned_view = compressed->MakeView();
  const auto span = pinned_view.neighbors(pinned_node);
  const std::vector<NodeId> before(span.begin(), span.end());

  GraphView thrasher = compressed->MakeView();
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      volatile size_t sink = thrasher.neighbors(v).size();
      (void)sink;
    }
  }

  EXPECT_TRUE(std::equal(span.begin(), span.end(), before.begin()));
  const auto want = graph.neighbors(pinned_node);
  EXPECT_TRUE(std::equal(span.begin(), span.end(), want.begin()));
}

// --- Corruption -------------------------------------------------------------

TEST(CGraphCorruptionTest, TypedErrors) {
  util::Rng rng(1001);
  const std::string path = TempPath("corrupt.hscg");
  HetGraph graph = RandomGraph(rng, 60, 2, 0.15);
  CGraphWriterOptions options;
  options.block_target_entries = 32;
  CGraphError error;
  ASSERT_TRUE(WriteCompressedGraph(path, graph, &error, options))
      << error.ToString();
  const std::vector<uint8_t> pristine = ReadFileBytes(path);
  {
    auto ok = CompressedGraph::Open(path, {}, &error);
    ASSERT_NE(ok, nullptr) << error.ToString();
    ASSERT_GT(ok->num_blocks(), 1u);
  }

  // Bad magic.
  {
    std::vector<uint8_t> bytes = pristine;
    bytes[0] ^= 0xff;
    WriteFileBytes(path, bytes);
    EXPECT_EQ(CompressedGraph::Open(path, {}, &error), nullptr);
    EXPECT_EQ(error.code, CGraphErrorCode::kBadMagic);
  }

  // Bad version (checked before the CRC, so it reports as such).
  {
    std::vector<uint8_t> bytes = pristine;
    bytes[8] ^= 0xff;
    WriteFileBytes(path, bytes);
    EXPECT_EQ(CompressedGraph::Open(path, {}, &error), nullptr);
    EXPECT_EQ(error.code, CGraphErrorCode::kBadVersion);
  }

  // Truncation.
  {
    std::vector<uint8_t> bytes = pristine;
    bytes.resize(bytes.size() / 2);
    WriteFileBytes(path, bytes);
    EXPECT_EQ(CompressedGraph::Open(path, {}, &error), nullptr);
    EXPECT_EQ(error.code, CGraphErrorCode::kTruncated);
  }
  {
    WriteFileBytes(path, std::vector<uint8_t>(12, 0));
    EXPECT_EQ(CompressedGraph::Open(path, {}, &error), nullptr);
    EXPECT_EQ(error.code, CGraphErrorCode::kBadMagic);
  }

  // Metadata corruption: flip a byte in the file tail (node index /
  // block directory land there) — caught eagerly by the metadata CRC.
  {
    std::vector<uint8_t> bytes = pristine;
    bytes[bytes.size() - 3] ^= 0x40;
    WriteFileBytes(path, bytes);
    EXPECT_EQ(CompressedGraph::Open(path, {}, &error), nullptr);
    EXPECT_EQ(error.code, CGraphErrorCode::kCrcMismatch);
  }

  // Blob corruption: flip a byte inside the first neighbor block. Open
  // still succeeds (the blob is excluded from the metadata CRC by design);
  // the damage is caught lazily, as a typed kBlockCrcMismatch, when the
  // block is verified/decoded.
  {
    std::vector<uint8_t> bytes = pristine;
    bytes[sizeof(cgraph_internal::Header) + 2] ^= 0x01;
    WriteFileBytes(path, bytes);
    auto opened = CompressedGraph::Open(path, {}, &error);
    ASSERT_NE(opened, nullptr) << error.ToString();
    EXPECT_FALSE(opened->VerifyBlock(0, &error));
    EXPECT_EQ(error.code, CGraphErrorCode::kBlockCrcMismatch);
    // Other blocks are untouched and still verify.
    EXPECT_TRUE(opened->VerifyBlock(opened->num_blocks() - 1, &error))
        << error.ToString();
  }
}

// --- Census / extractor equivalence ----------------------------------------

TEST(CGraphExtractionTest, MatchesCsrExtractionIncludingMultiThread) {
  util::Rng rng(55555);
  const std::string path = TempPath("extract.hscg");
  HetGraph graph = RandomGraph(rng, 80, 3, 0.08);
  CGraphWriterOptions woptions;
  woptions.block_target_entries = 64;
  CGraphError error;
  ASSERT_TRUE(WriteCompressedGraph(path, graph, &error, woptions))
      << error.ToString();
  CGraphOptions roptions;
  roptions.cache_bytes = 1;  // force paging during the census
  auto compressed = CompressedGraph::Open(path, roptions, &error);
  ASSERT_NE(compressed, nullptr) << error.ToString();

  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) nodes.push_back(v);

  // Without encodings the census counts each grouped run's leaves in one
  // pass (the aggregated last edge); with them it runs child by child. The
  // per-thread views share one cache either way.
  for (bool keep : {true, false}) {
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("keep_encodings=" + std::to_string(keep) +
                   " threads=" + std::to_string(threads));
      core::ExtractorConfig config;
      config.census.max_edges = 4;
      config.census.keep_encodings = keep;
      config.dmax_percentile = 90.0;
      config.num_threads = threads;

      core::Extractor csr_extractor(graph, config);
      core::ExtractionResult expected = csr_extractor.Run(nodes);

      core::BasicExtractor<CompressedGraph> cgraph_extractor(*compressed,
                                                             config);
      core::ExtractionResult actual = cgraph_extractor.Run(nodes);

      EXPECT_EQ(actual.metrics.Counter("census.leaf_groups") > 0, !keep);
      EXPECT_EQ(actual.metrics.Counter("census.leaf_groups"),
                expected.metrics.Counter("census.leaf_groups"));
      EXPECT_EQ(actual.total_subgraphs, expected.total_subgraphs);
      EXPECT_EQ(actual.effective_dmax, expected.effective_dmax);
      ASSERT_EQ(actual.features.feature_hashes,
                expected.features.feature_hashes);
      ASSERT_EQ(actual.features.matrix.rows(), expected.features.matrix.rows());
      ASSERT_EQ(actual.features.matrix.cols(), expected.features.matrix.cols());
      for (int r = 0; r < expected.features.matrix.rows(); ++r) {
        for (int c = 0; c < expected.features.matrix.cols(); ++c) {
          ASSERT_EQ(actual.features.matrix(r, c),
                    expected.features.matrix(r, c))
              << "r=" << r << " c=" << c;
        }
      }
    }
  }
}

TEST(CGraphExtractionTest, ConcurrentViewsShareOneCache) {
  util::Rng rng(2468);
  const std::string path = TempPath("concurrent.hscg");
  HetGraph graph = RandomGraph(rng, 120, 2, 0.1);
  CGraphWriterOptions woptions;
  woptions.block_target_entries = 16;
  CGraphError error;
  ASSERT_TRUE(WriteCompressedGraph(path, graph, &error, woptions))
      << error.ToString();
  CGraphOptions roptions;
  roptions.cache_bytes = 1;
  auto compressed = CompressedGraph::Open(path, roptions, &error);
  ASSERT_NE(compressed, nullptr) << error.ToString();

  // Each thread sweeps all adjacency through its own view against a
  // deliberately tiny shared cache; every thread must see exactly the CSR
  // adjacency regardless of eviction interleaving.
  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      GraphView view = compressed->MakeView();
      for (int sweep = 0; sweep < 3; ++sweep) {
        for (NodeId v = 0; v < graph.num_nodes(); ++v) {
          const auto got = view.neighbors(v);
          const auto want = graph.neighbors(v);
          if (got.size() != want.size() ||
              !std::equal(got.begin(), got.end(), want.begin())) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

// --- Stream compose ---------------------------------------------------------

TEST(CGraphStreamTest, DynamicGraphHydratesFromCompressedBase) {
  util::Rng rng(112233);
  const std::string path = TempPath("stream.hscg");
  HetGraph graph = RandomGraph(rng, 50, 2, 0.1);
  CGraphError error;
  ASSERT_TRUE(WriteCompressedGraph(path, graph, &error)) << error.ToString();
  auto compressed = CompressedGraph::Open(path, {}, &error);
  ASSERT_NE(compressed, nullptr) << error.ToString();

  stream::DynamicGraph dynamic(*compressed);
  ASSERT_EQ(dynamic.num_nodes(), graph.num_nodes());
  EXPECT_EQ(dynamic.num_edges(), static_cast<size_t>(graph.num_edges()));

  // The hydrated base is the bit-identical CSR...
  const HetGraph& base = dynamic.base();
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto got = base.neighbors(v);
    const auto want = graph.neighbors(v);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  }

  // ...and the overlay composes on top of it.
  NodeId u = 0;
  NodeId w = graph.num_nodes() - 1;
  const bool had_edge = graph.HasEdge(u, w);
  std::string reason;
  if (had_edge) {
    ASSERT_TRUE(dynamic.RemoveEdge(u, w, &reason)) << reason;
    EXPECT_FALSE(dynamic.HasEdge(u, w));
  } else {
    ASSERT_TRUE(dynamic.AddEdge(u, w, &reason)) << reason;
    EXPECT_TRUE(dynamic.HasEdge(u, w));
  }
  const HetGraph& materialized = dynamic.Materialize();
  EXPECT_EQ(materialized.HasEdge(u, w), !had_edge);
}

}  // namespace
}  // namespace hsgf::gstore
