#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/extractor.h"
#include "data/generator.h"
#include "data/schema.h"
#include "graph/builder.h"
#include "io/snapshot.h"
#include "serve/feature_service.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/delta_log.h"
#include "stream/stream_engine.h"
#include "util/metrics.h"

namespace hsgf::serve {
namespace {

using graph::HetGraph;
using graph::NodeId;

// ---------------------------------------------------------------------------
// Protocol layer

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(ProtocolTest, RequestRoundTrips) {
  for (MessageType type :
       {MessageType::kGetFeatures, MessageType::kGetVocabulary,
        MessageType::kTopKEncodings, MessageType::kStats,
        MessageType::kShutdown}) {
    Request request;
    request.type = type;
    request.node = -7;
    request.k = 42;
    Request decoded;
    ASSERT_TRUE(DecodeRequest(Bytes(EncodeRequest(request)), &decoded));
    EXPECT_EQ(decoded.type, type);
    if (type == MessageType::kGetFeatures) {
      EXPECT_EQ(decoded.node, -7);
    }
    if (type == MessageType::kTopKEncodings) {
      EXPECT_EQ(decoded.k, 42u);
    }
  }
}

TEST(ProtocolTest, MalformedRequestsFailClosed) {
  Request request;
  EXPECT_FALSE(DecodeRequest({}, &request));              // empty
  const std::string unknown_type = "\xFF";
  EXPECT_FALSE(DecodeRequest(Bytes(unknown_type), &request));
  const std::string short_body = "\x01\x01";              // GetFeatures, 1 byte
  EXPECT_FALSE(DecodeRequest(Bytes(short_body), &request));
  std::string trailing = EncodeRequest(Request{});
  trailing.push_back('\0');                               // trailing garbage
  EXPECT_FALSE(DecodeRequest(Bytes(trailing), &request));
}

TEST(ProtocolTest, ResponseRoundTrips) {
  {
    Response response;
    response.source = 2;
    response.values = {0.0, 1.5, -3.25};
    Response decoded;
    ASSERT_TRUE(DecodeResponse(
        MessageType::kGetFeatures,
        Bytes(EncodeResponse(MessageType::kGetFeatures, response)), &decoded));
    EXPECT_EQ(decoded.status, StatusCode::kOk);
    EXPECT_EQ(decoded.source, 2);
    EXPECT_EQ(decoded.values, response.values);
  }
  {
    Response response;
    response.hashes = {1, 99, 1ull << 60};
    Response decoded;
    ASSERT_TRUE(DecodeResponse(
        MessageType::kGetVocabulary,
        Bytes(EncodeResponse(MessageType::kGetVocabulary, response)),
        &decoded));
    EXPECT_EQ(decoded.hashes, response.hashes);
  }
  {
    Response response;
    response.entries = {{7, 12.5, "a-bb"}, {8, 3.0, "h8"}};
    Response decoded;
    ASSERT_TRUE(DecodeResponse(
        MessageType::kTopKEncodings,
        Bytes(EncodeResponse(MessageType::kTopKEncodings, response)),
        &decoded));
    ASSERT_EQ(decoded.entries.size(), 2u);
    EXPECT_EQ(decoded.entries[0].hash, 7u);
    EXPECT_EQ(decoded.entries[0].total, 12.5);
    EXPECT_EQ(decoded.entries[0].encoding, "a-bb");
    EXPECT_EQ(decoded.entries[1].encoding, "h8");
  }
  {
    Response response;
    response.status = StatusCode::kNotFound;
    response.text = "node 9 is in neither the snapshot nor the graph";
    Response decoded;
    ASSERT_TRUE(DecodeResponse(
        MessageType::kGetFeatures,
        Bytes(EncodeResponse(MessageType::kGetFeatures, response)), &decoded));
    EXPECT_EQ(decoded.status, StatusCode::kNotFound);
    EXPECT_EQ(decoded.text, response.text);
  }
}

TEST(ProtocolTest, StreamRequestsRoundTrip) {
  {
    Request request;
    request.type = MessageType::kApplyUpdate;
    request.ops = {stream::DeltaOp::AddNode(3), stream::DeltaOp::AddEdge(1, 9),
                   stream::DeltaOp::RemoveEdge(4, 2)};
    Request decoded;
    ASSERT_TRUE(DecodeRequest(Bytes(EncodeRequest(request)), &decoded));
    EXPECT_EQ(decoded.type, MessageType::kApplyUpdate);
    EXPECT_EQ(decoded.ops, request.ops);
  }
  {
    Request request;
    request.type = MessageType::kGetEpoch;
    Request decoded;
    ASSERT_TRUE(DecodeRequest(Bytes(EncodeRequest(request)), &decoded));
    EXPECT_EQ(decoded.type, MessageType::kGetEpoch);
    // kGetEpoch carries no body; a stray byte fails closed.
    std::string padded = EncodeRequest(request);
    padded.push_back('\0');
    EXPECT_FALSE(DecodeRequest(Bytes(padded), &decoded));
  }
}

TEST(ProtocolTest, StreamResponsesRoundTrip) {
  {
    Response response;
    response.epoch = 12;
    response.applied = 4;
    response.rejected = 1;
    response.dirty_roots = 17;
    response.new_columns = 2;
    Response decoded;
    ASSERT_TRUE(DecodeResponse(
        MessageType::kApplyUpdate,
        Bytes(EncodeResponse(MessageType::kApplyUpdate, response)), &decoded));
    EXPECT_EQ(decoded.status, StatusCode::kOk);
    EXPECT_EQ(decoded.epoch, 12u);
    EXPECT_EQ(decoded.applied, 4u);
    EXPECT_EQ(decoded.rejected, 1u);
    EXPECT_EQ(decoded.dirty_roots, 17u);
    EXPECT_EQ(decoded.new_columns, 2u);
  }
  {
    Response response;
    response.stream_attached = 1;
    response.epoch = 99;
    response.num_columns = 1234;
    response.overlay_rows = 56;
    Response decoded;
    ASSERT_TRUE(DecodeResponse(
        MessageType::kGetEpoch,
        Bytes(EncodeResponse(MessageType::kGetEpoch, response)), &decoded));
    EXPECT_EQ(decoded.stream_attached, 1);
    EXPECT_EQ(decoded.epoch, 99u);
    EXPECT_EQ(decoded.num_columns, 1234u);
    EXPECT_EQ(decoded.overlay_rows, 56u);
  }
  {  // kGetFeatures now carries the epoch alongside source and values.
    Response response;
    response.source = 3;
    response.epoch = 7;
    response.values = {1.0, 2.0};
    Response decoded;
    ASSERT_TRUE(DecodeResponse(
        MessageType::kGetFeatures,
        Bytes(EncodeResponse(MessageType::kGetFeatures, response)), &decoded));
    EXPECT_EQ(decoded.source, 3);
    EXPECT_EQ(decoded.epoch, 7u);
    EXPECT_EQ(decoded.values, response.values);
  }
}

TEST(ProtocolTest, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string payload = "hello frames";
  ASSERT_TRUE(WriteFrame(fds[1], payload));
  std::string read_back;
  ASSERT_TRUE(ReadFrame(fds[0], &read_back));
  EXPECT_EQ(read_back, payload);

  // An oversized length prefix must be rejected before any allocation.
  const uint32_t huge = kMaxFrameBytes + 1;
  ASSERT_EQ(write(fds[1], &huge, 4), 4);
  EXPECT_FALSE(ReadFrame(fds[0], &read_back));

  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// FeatureService

core::ExtractorConfig TestConfig() {
  core::ExtractorConfig config;
  config.census.max_edges = 3;
  config.census.keep_encodings = true;
  return config;
}

// A snapshot whose last extraction row was deliberately left out, so one
// graph node exercises the cold-miss path against the full-run ground truth.
struct ServeFixture {
  HetGraph graph;
  std::vector<NodeId> nodes;         // the full extraction's node list
  core::ExtractionResult full;       // ground truth over `nodes`
  core::FeatureSet kept;             // full minus the last row
  NodeId dropped = 0;                // the node missing from the snapshot
  io::Snapshot snapshot;
};

ServeFixture MakeFixture(const char* filename) {
  ServeFixture fixture{data::MakeNetwork(data::LoadLikeSchema(0.03), 7),
                       {}, {}, {}, 0, {}};
  for (NodeId v = 0; v < fixture.graph.num_nodes() && v < 12; ++v) {
    fixture.nodes.push_back(v);
  }
  core::Extractor extractor(fixture.graph, TestConfig());
  fixture.full = extractor.Run(fixture.nodes);
  fixture.dropped = fixture.nodes.back();

  std::vector<int> keep(fixture.nodes.size() - 1);
  std::iota(keep.begin(), keep.end(), 0);
  fixture.kept.matrix = fixture.full.features.matrix.SelectRows(keep);
  fixture.kept.feature_hashes = fixture.full.features.feature_hashes;
  fixture.kept.encodings = fixture.full.features.encodings;

  io::SnapshotContents contents;
  contents.max_edges = TestConfig().census.max_edges;
  contents.effective_dmax = fixture.full.effective_dmax;
  contents.hash_seed = TestConfig().census.hash_seed;
  contents.label_names = fixture.graph.label_names();
  for (size_t i = 0; i + 1 < fixture.nodes.size(); ++i) {
    contents.node_ids.push_back(fixture.nodes[i]);
    contents.node_labels.push_back(fixture.graph.label(fixture.nodes[i]));
  }
  contents.features = &fixture.kept;

  const std::string path = ::testing::TempDir() + filename;
  io::SnapshotError error;
  EXPECT_TRUE(io::SaveSnapshot(path, contents, &error)) << error.message;
  auto snapshot = io::OpenSnapshot(path, &error);
  EXPECT_TRUE(snapshot.has_value()) << error.message;
  fixture.snapshot = *snapshot;
  return fixture;
}

int64_t CounterValue(const util::MetricsSnapshot& snapshot,
                     const std::string& name) {
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return value;
  }
  return -1;
}

TEST(FeatureServiceTest, SnapshotRowsServeBitIdentical) {
  ServeFixture fixture = MakeFixture("svc-snapshot.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);

  for (size_t i = 0; i + 1 < fixture.nodes.size(); ++i) {
    FeatureService::FeatureReply reply =
        service.GetFeatures(fixture.nodes[i]);
    ASSERT_EQ(reply.outcome, FeatureService::Outcome::kOk);
    EXPECT_EQ(reply.source, FeatureSource::kSnapshot);
    ASSERT_EQ(reply.values.size(), fixture.kept.feature_hashes.size());
    for (size_t c = 0; c < reply.values.size(); ++c) {
      EXPECT_EQ(reply.values[c],
                fixture.full.features.matrix(static_cast<int>(i),
                                             static_cast<int>(c)));
    }
  }
  EXPECT_EQ(CounterValue(metrics.Snapshot(), "serve.snapshot_hits"),
            static_cast<int64_t>(fixture.nodes.size() - 1));
}

TEST(FeatureServiceTest, MissWithoutGraphIsNotFound) {
  ServeFixture fixture = MakeFixture("svc-nograph.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  EXPECT_FALSE(service.has_graph());
  FeatureService::FeatureReply reply = service.GetFeatures(fixture.dropped);
  EXPECT_EQ(reply.outcome, FeatureService::Outcome::kNotFound);
  EXPECT_TRUE(reply.values.empty());
  EXPECT_EQ(CounterValue(metrics.Snapshot(), "serve.not_found"), 1);
}

TEST(FeatureServiceTest, ColdMissIsBitIdenticalThenCached) {
  ServeFixture fixture = MakeFixture("svc-cold.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  std::string error;
  ASSERT_TRUE(service.AttachGraph(fixture.graph, &error)) << error;

  // Cold: censused on demand, projected onto the snapshot vocabulary. Must
  // reproduce the full extraction's row for this node bit for bit.
  FeatureService::FeatureReply cold = service.GetFeatures(fixture.dropped);
  ASSERT_EQ(cold.outcome, FeatureService::Outcome::kOk);
  EXPECT_EQ(cold.source, FeatureSource::kComputed);
  const int dropped_row = static_cast<int>(fixture.nodes.size()) - 1;
  ASSERT_EQ(cold.values.size(), fixture.kept.feature_hashes.size());
  for (size_t c = 0; c < cold.values.size(); ++c) {
    EXPECT_EQ(cold.values[c],
              fixture.full.features.matrix(dropped_row, static_cast<int>(c)))
        << "col " << c;
  }

  // Warm: same vector, now from the LRU.
  FeatureService::FeatureReply warm = service.GetFeatures(fixture.dropped);
  ASSERT_EQ(warm.outcome, FeatureService::Outcome::kOk);
  EXPECT_EQ(warm.source, FeatureSource::kCache);
  EXPECT_EQ(warm.values, cold.values);

  const util::MetricsSnapshot metric_values = metrics.Snapshot();
  EXPECT_EQ(CounterValue(metric_values, "serve.cache_misses"), 1);
  EXPECT_EQ(CounterValue(metric_values, "serve.cache_hits"), 1);
  EXPECT_EQ(service.GetStats().cache_entries, 1u);
}

TEST(FeatureServiceTest, NodeOutsideGraphIsNotFound) {
  ServeFixture fixture = MakeFixture("svc-outside.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  std::string error;
  ASSERT_TRUE(service.AttachGraph(fixture.graph, &error)) << error;
  EXPECT_EQ(service.GetFeatures(fixture.graph.num_nodes() + 5).outcome,
            FeatureService::Outcome::kNotFound);
  EXPECT_EQ(service.GetFeatures(-3).outcome,
            FeatureService::Outcome::kNotFound);
}

TEST(FeatureServiceTest, ExpiredDeadlineFailsClosedAndCachesNothing) {
  ServeFixture fixture = MakeFixture("svc-deadline.hsnap");
  util::MetricsRegistry metrics;
  FeatureServiceConfig config;
  config.cold_census_deadline_s = 1e-9;  // expired before the census starts
  FeatureService service(fixture.snapshot, metrics, config);
  std::string error;
  ASSERT_TRUE(service.AttachGraph(fixture.graph, &error)) << error;
  FeatureService::FeatureReply reply = service.GetFeatures(fixture.dropped);
  EXPECT_EQ(reply.outcome, FeatureService::Outcome::kDeadline);
  EXPECT_TRUE(reply.values.empty());
  EXPECT_EQ(service.GetStats().cache_entries, 0u);
  EXPECT_EQ(CounterValue(metrics.Snapshot(), "serve.deadline_exceeded"), 1);
}

TEST(FeatureServiceTest, AttachGraphRejectsForeignLabelAlphabet) {
  ServeFixture fixture = MakeFixture("svc-alphabet.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  HetGraph foreign = graph::MakeGraph({"x", "y"}, {0, 1, 0}, {{0, 1}, {1, 2}});
  std::string error;
  EXPECT_FALSE(service.AttachGraph(foreign, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(service.has_graph());
}

TEST(FeatureServiceTest, VocabularyAndTopKFollowColumnOrder) {
  ServeFixture fixture = MakeFixture("svc-vocab.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);

  const std::vector<uint64_t> vocabulary = service.Vocabulary();
  EXPECT_EQ(vocabulary, fixture.kept.feature_hashes);

  const auto top = service.TopKEncodings(3);
  ASSERT_EQ(top.size(), std::min<size_t>(3, vocabulary.size()));
  const auto all = service.TopKEncodings(1u << 20);
  EXPECT_EQ(all.size(), vocabulary.size());  // over-asking returns everything
  double max_total = 0.0;
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_FALSE(all[i].encoding.empty());
    // Every entry's hash is a vocabulary column.
    EXPECT_NE(std::find(vocabulary.begin(), vocabulary.end(), all[i].hash),
              vocabulary.end());
    if (i > 0) {
      EXPECT_GE(all[i - 1].total, all[i].total);  // heaviest first
    }
    max_total = std::max(max_total, all[i].total);
  }
  // The top-3 prefix agrees with the full ranking, and leads with the
  // global maximum.
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].hash, all[i].hash);
  }
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].total, max_total);
}

TEST(FeatureServiceTest, StatsDescribeTheSnapshot) {
  ServeFixture fixture = MakeFixture("svc-stats.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  const FeatureService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.num_rows, fixture.nodes.size() - 1);
  EXPECT_EQ(stats.num_cols, fixture.kept.feature_hashes.size());
  EXPECT_EQ(stats.max_edges, 3);
  EXPECT_FALSE(stats.graph_attached);
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_GT(stats.cache_capacity, 0u);
}

// ---------------------------------------------------------------------------
// FeatureService with an attached stream engine

// Path graph 0-1-2-...-7 with alternating labels; the snapshot persists rows
// for nodes {0, 1, 2, 4, 5} only, so 3, 6 and 7 exercise the cold path. With
// emax = 2, a delta touching {0, 2} dirties exactly {0, 1, 2, 3} — far from
// the cached nodes 6 and 7.
struct StreamFixture {
  HetGraph graph;
  core::ExtractionResult full;  // ground truth over all 8 nodes
  core::FeatureSet kept;
  io::Snapshot snapshot;
  std::unique_ptr<stream::StreamEngine> engine;
};

StreamFixture MakeStreamFixture(const char* filename) {
  StreamFixture fixture;
  fixture.graph = graph::MakeGraph(
      {"a", "b"}, {0, 1, 0, 1, 0, 1, 0, 1},
      {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});

  core::ExtractorConfig config;
  config.census.max_edges = 2;
  config.census.keep_encodings = true;
  std::vector<NodeId> all_nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  core::Extractor extractor(fixture.graph, config);
  fixture.full = extractor.Run(all_nodes);

  const std::vector<int> keep_rows = {0, 1, 2, 4, 5};
  fixture.kept.matrix = fixture.full.features.matrix.SelectRows(keep_rows);
  fixture.kept.feature_hashes = fixture.full.features.feature_hashes;
  fixture.kept.encodings = fixture.full.features.encodings;

  io::SnapshotContents contents;
  contents.max_edges = config.census.max_edges;
  contents.effective_dmax = fixture.full.effective_dmax;
  contents.hash_seed = config.census.hash_seed;
  contents.label_names = fixture.graph.label_names();
  for (int row : keep_rows) {
    contents.node_ids.push_back(row);
    contents.node_labels.push_back(fixture.graph.label(row));
  }
  contents.features = &fixture.kept;

  const std::string path = ::testing::TempDir() + filename;
  io::SnapshotError error;
  EXPECT_TRUE(io::SaveSnapshot(path, contents, &error)) << error.message;
  auto snapshot = io::OpenSnapshot(path, &error);
  EXPECT_TRUE(snapshot.has_value()) << error.message;
  fixture.snapshot = *snapshot;

  stream::StreamEngineConfig engine_config;
  engine_config.census.max_edges = fixture.snapshot.max_edges();
  engine_config.census.max_degree = fixture.snapshot.effective_dmax();
  engine_config.census.mask_start_label = fixture.snapshot.mask_start_label();
  engine_config.census.hash_seed = fixture.snapshot.hash_seed();
  engine_config.log1p_transform = fixture.snapshot.log1p_transform();
  fixture.engine =
      std::make_unique<stream::StreamEngine>(fixture.graph, engine_config);
  return fixture;
}

TEST(FeatureServiceTest, StreamServingAndTargetedInvalidation) {
  StreamFixture fixture = MakeStreamFixture("svc-stream.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  std::string error;
  ASSERT_TRUE(service.AttachStream(*fixture.engine, &error)) << error;
  ASSERT_TRUE(service.has_stream());

  // Cold-miss nodes 6 and 3 land in the LRU.
  EXPECT_EQ(service.GetFeatures(6).source, FeatureSource::kComputed);
  EXPECT_EQ(service.GetFeatures(6).source, FeatureSource::kCache);
  EXPECT_EQ(service.GetFeatures(3).source, FeatureSource::kComputed);
  EXPECT_EQ(service.GetStats().cache_entries, 2u);

  // Batch 1: add the chord 0-2. Dirty set is {0, 1, 2, 3}.
  const std::vector<stream::DeltaOp> add = {stream::DeltaOp::AddEdge(0, 2)};
  FeatureService::UpdateReply reply1 =
      service.ApplyUpdate({add.data(), add.size()});
  EXPECT_EQ(reply1.epoch, 1u);
  EXPECT_EQ(reply1.applied, 1);
  EXPECT_EQ(reply1.rejected, 0);
  EXPECT_EQ(reply1.dirty_roots, 4);

  // Node 3 was dirty: its cache entry is gone and it now serves from the
  // stream's incrementally maintained row.
  EXPECT_EQ(service.GetFeatures(3).source, FeatureSource::kStream);

  // Re-warm node 6 (a vocabulary-growing batch clears the whole cache).
  service.GetFeatures(6);
  ASSERT_EQ(service.GetFeatures(6).source, FeatureSource::kCache);
  const size_t cached_before = service.GetStats().cache_entries;

  // Batch 2: remove the chord again. The graph returns to its base state,
  // so every re-censused hash is already interned: no new columns, and the
  // invalidation must be *targeted* — node 6 stays cached.
  const std::vector<stream::DeltaOp> remove = {
      stream::DeltaOp::RemoveEdge(0, 2)};
  FeatureService::UpdateReply reply2 =
      service.ApplyUpdate({remove.data(), remove.size()});
  EXPECT_EQ(reply2.epoch, 2u);
  EXPECT_EQ(reply2.applied, 1);
  EXPECT_EQ(reply2.new_columns, 0);
  EXPECT_EQ(reply2.dirty_roots, 4);
  EXPECT_EQ(service.GetStats().cache_entries, cached_before);

  // The engine's own counters land in the service's registry (so in
  // kStats): batch 1 was every dirty root's first touch, and batch 2 found
  // each with a maintained row.
  const util::MetricsSnapshot counters = metrics.Snapshot();
  EXPECT_EQ(counters.Counter("stream.batches"), 2);
  EXPECT_EQ(counters.Counter("stream.dirty_roots"), 8);
  EXPECT_EQ(counters.Counter("stream.full_census_roots.first_touch"), 4);
  EXPECT_EQ(counters.Counter("stream.delta_roots") +
                counters.Counter("stream.full_census_roots.dmax_crossing") +
                counters.Counter("stream.full_census_roots.budget"),
            4);
  const util::HistogramSnapshot* apply_micros =
      counters.Histogram("stream.apply_batch_micros");
  ASSERT_NE(apply_micros, nullptr);
  EXPECT_EQ(apply_micros->count, 2);

  FeatureService::FeatureReply warm = service.GetFeatures(6);
  EXPECT_EQ(warm.source, FeatureSource::kCache);
  EXPECT_EQ(warm.epoch, 2u);

  // Dirty snapshot node 0 serves from the stream at the full engine width;
  // after the net-zero edit its values equal the original extraction row
  // zero-extended over the columns batch 1 interned — bit-identical.
  FeatureService::FeatureReply streamed = service.GetFeatures(0);
  EXPECT_EQ(streamed.source, FeatureSource::kStream);
  EXPECT_EQ(streamed.epoch, 2u);
  ASSERT_EQ(streamed.values.size(), fixture.engine->num_columns());
  const uint32_t snapshot_cols = fixture.snapshot.num_cols();
  for (size_t c = 0; c < streamed.values.size(); ++c) {
    const double expected =
        c < snapshot_cols
            ? fixture.full.features.matrix(0, static_cast<int>(c))
            : 0.0;
    EXPECT_EQ(streamed.values[c], expected) << "col " << c;
  }

  // Clean snapshot node 5 still serves from the snapshot, zero-padded to
  // the engine's current width.
  FeatureService::FeatureReply padded = service.GetFeatures(5);
  EXPECT_EQ(padded.source, FeatureSource::kSnapshot);
  ASSERT_EQ(padded.values.size(), fixture.engine->num_columns());
  for (size_t c = snapshot_cols; c < padded.values.size(); ++c) {
    EXPECT_EQ(padded.values[c], 0.0);
  }

  // Epoch bookkeeping.
  const FeatureService::EpochInfo epoch_info = service.GetEpoch();
  EXPECT_TRUE(epoch_info.stream_attached);
  EXPECT_EQ(epoch_info.epoch, 2u);
  EXPECT_EQ(epoch_info.num_columns, fixture.engine->num_columns());
  const FeatureService::Stats stats = service.GetStats();
  EXPECT_TRUE(stats.stream_attached);
  EXPECT_EQ(stats.epoch, 2u);

  // The vocabulary served is the engine's (snapshot prefix preserved).
  const std::vector<uint64_t> vocabulary = service.Vocabulary();
  ASSERT_GE(vocabulary.size(), fixture.kept.feature_hashes.size());
  for (size_t c = 0; c < fixture.kept.feature_hashes.size(); ++c) {
    EXPECT_EQ(vocabulary[c], fixture.kept.feature_hashes[c]);
  }
}

TEST(FeatureServiceTest, AttachStreamRejectsMismatchedEngine) {
  StreamFixture fixture = MakeStreamFixture("svc-stream-mismatch.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);

  // Wrong census parameters.
  stream::StreamEngineConfig wrong;
  wrong.census.max_edges = fixture.snapshot.max_edges() + 1;
  wrong.census.hash_seed = fixture.snapshot.hash_seed();
  stream::StreamEngine wrong_engine(fixture.graph, wrong);
  std::string error;
  EXPECT_FALSE(service.AttachStream(wrong_engine, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(service.has_stream());

  // Non-pristine engine (a batch already applied).
  stream::StreamEngineConfig config;
  config.census.max_edges = fixture.snapshot.max_edges();
  config.census.max_degree = fixture.snapshot.effective_dmax();
  config.census.hash_seed = fixture.snapshot.hash_seed();
  config.log1p_transform = fixture.snapshot.log1p_transform();
  stream::StreamEngine used_engine(fixture.graph, config);
  const std::vector<stream::DeltaOp> ops = {stream::DeltaOp::AddEdge(0, 2)};
  used_engine.ApplyBatch({ops.data(), ops.size()});
  EXPECT_FALSE(service.AttachStream(used_engine, &error));
  EXPECT_FALSE(service.has_stream());
}

// ---------------------------------------------------------------------------
// SocketServer end to end

int ConnectTcp(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

bool ClientRoundTrip(int fd, const Request& request, Response* response) {
  if (!WriteFrame(fd, EncodeRequest(request))) return false;
  std::string payload;
  if (!ReadFrame(fd, &payload)) return false;
  return DecodeResponse(request.type, Bytes(payload), response);
}

TEST(SocketServerTest, ServesTheProtocolOverTcp) {
  ServeFixture fixture = MakeFixture("srv-tcp.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  std::string error;
  ASSERT_TRUE(service.AttachGraph(fixture.graph, &error)) << error;

  ServerConfig config;
  config.tcp_port = 0;  // ephemeral
  SocketServer server(service, metrics, config);
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.tcp_port(), 0);
  std::thread serve_thread([&server] { server.Serve(); });

  const int fd = ConnectTcp(server.tcp_port());

  {  // A row persisted in the snapshot.
    Request request;
    request.type = MessageType::kGetFeatures;
    request.node = fixture.nodes.front();
    Response response;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.source,
              static_cast<uint8_t>(FeatureSource::kSnapshot));
    ASSERT_EQ(response.values.size(), fixture.kept.feature_hashes.size());
    for (size_t c = 0; c < response.values.size(); ++c) {
      EXPECT_EQ(response.values[c],
                fixture.full.features.matrix(0, static_cast<int>(c)));
    }
  }
  {  // The dropped node: censused on demand through the wire.
    Request request;
    request.type = MessageType::kGetFeatures;
    request.node = fixture.dropped;
    Response response;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.source,
              static_cast<uint8_t>(FeatureSource::kComputed));
    const int dropped_row = static_cast<int>(fixture.nodes.size()) - 1;
    for (size_t c = 0; c < response.values.size(); ++c) {
      EXPECT_EQ(response.values[c],
                fixture.full.features.matrix(dropped_row,
                                             static_cast<int>(c)));
    }
  }
  {  // A node that exists nowhere.
    Request request;
    request.type = MessageType::kGetFeatures;
    request.node = fixture.graph.num_nodes() + 99;
    Response response;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    EXPECT_EQ(response.status, StatusCode::kNotFound);
    EXPECT_FALSE(response.text.empty());
  }
  {  // Vocabulary and top-k.
    Request request;
    request.type = MessageType::kGetVocabulary;
    Response response;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    EXPECT_EQ(response.hashes, fixture.kept.feature_hashes);

    request.type = MessageType::kTopKEncodings;
    request.k = 2;
    Response top;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &top));
    ASSERT_EQ(top.entries.size(), 2u);
    EXPECT_GE(top.entries[0].total, top.entries[1].total);
    EXPECT_FALSE(top.entries[0].encoding.empty());
  }
  {  // Stats JSON mentions the serve metrics.
    Request request;
    request.type = MessageType::kStats;
    Response response;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    EXPECT_NE(response.text.find("\"snapshot\""), std::string::npos);
    EXPECT_NE(response.text.find("serve.request_micros"), std::string::npos);
  }
  {  // Garbage elicits kBadRequest, and the connection survives it.
    ASSERT_TRUE(WriteFrame(fd, "\xFF\xFF"));
    std::string payload;
    ASSERT_TRUE(ReadFrame(fd, &payload));
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload[0], static_cast<char>(StatusCode::kBadRequest));
  }
  {  // Shutdown stops the accept loop.
    Request request;
    request.type = MessageType::kShutdown;
    Response response;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
  close(fd);
  serve_thread.join();

  const util::MetricsSnapshot metric_values = metrics.Snapshot();
  EXPECT_EQ(CounterValue(metric_values, "serve.connections"), 1);
  EXPECT_GE(CounterValue(metric_values, "serve.requests_total"), 7);
  EXPECT_EQ(CounterValue(metric_values, "serve.bad_requests"), 1);
}

TEST(SocketServerTest, ServesOverAUnixSocketAndHonorsMaxRequests) {
  ServeFixture fixture = MakeFixture("srv-unix.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);

  ServerConfig config;
  config.unix_socket_path = ::testing::TempDir() + "srv-unix.sock";
  config.max_requests = 1;  // the daemon exits after one request
  SocketServer server(service, metrics, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread serve_thread([&server] { server.Serve(); });

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(config.unix_socket_path.size(), sizeof(addr.sun_path));
  std::strncpy(addr.sun_path, config.unix_socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  Request request;
  request.type = MessageType::kGetFeatures;
  request.node = fixture.nodes.front();
  Response response;
  ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
  EXPECT_EQ(response.status, StatusCode::kOk);
  close(fd);
  serve_thread.join();  // max_requests bounded the daemon's lifetime
}

TEST(SocketServerTest, ApplyUpdateWithoutStreamIsAnExplicitError) {
  ServeFixture fixture = MakeFixture("srv-nostream.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  ServerConfig config;
  config.tcp_port = 0;
  SocketServer server(service, metrics, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread serve_thread([&server] { server.Serve(); });

  const int fd = ConnectTcp(server.tcp_port());
  Request request;
  request.type = MessageType::kApplyUpdate;
  request.ops = {stream::DeltaOp::AddEdge(0, 1)};
  Response response;
  ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
  EXPECT_EQ(response.status, StatusCode::kError);
  EXPECT_NE(response.text.find("disabled"), std::string::npos);

  // kGetEpoch still answers, reporting no stream.
  request.type = MessageType::kGetEpoch;
  ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.stream_attached, 0);

  close(fd);
  server.RequestStop();
  serve_thread.join();
}

TEST(SocketServerTest, StreamUpdatesOverTcpAreLoggedWriteAhead) {
  StreamFixture fixture = MakeStreamFixture("srv-stream.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  std::string error;
  ASSERT_TRUE(service.AttachStream(*fixture.engine, &error)) << error;

  const std::string log_path = ::testing::TempDir() + "srv-stream.wal";
  std::remove(log_path.c_str());
  stream::DeltaLogWriter delta_log;
  ASSERT_TRUE(delta_log.Open(log_path, &error)) << error;

  ServerConfig config;
  config.tcp_port = 0;
  config.delta_log = &delta_log;
  SocketServer server(service, metrics, config);
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread serve_thread([&server] { server.Serve(); });
  const int fd = ConnectTcp(server.tcp_port());

  {  // Apply one batch over the wire.
    Request request;
    request.type = MessageType::kApplyUpdate;
    request.ops = {stream::DeltaOp::AddEdge(0, 2),
                   stream::DeltaOp::AddEdge(0, 0)};  // second op rejected
    Response response;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.epoch, 1u);
    EXPECT_EQ(response.applied, 1u);
    EXPECT_EQ(response.rejected, 1u);
    EXPECT_EQ(response.dirty_roots, 4u);
  }
  {  // The epoch is observable, and feature replies carry it.
    Request request;
    request.type = MessageType::kGetEpoch;
    Response response;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.stream_attached, 1);
    EXPECT_EQ(response.epoch, 1u);

    request.type = MessageType::kGetFeatures;
    request.node = 0;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.source, static_cast<uint8_t>(FeatureSource::kStream));
    EXPECT_EQ(response.epoch, 1u);
  }
  {  // Stats JSON reports the stream block.
    Request request;
    request.type = MessageType::kStats;
    Response response;
    ASSERT_TRUE(ClientRoundTrip(fd, request, &response));
    EXPECT_NE(response.text.find("\"stream\""), std::string::npos);
    EXPECT_NE(response.text.find("\"epoch\":1"), std::string::npos);
  }
  close(fd);
  server.RequestStop();
  serve_thread.join();
  delta_log.Close();

  // Write-ahead contract: the batch reached the log exactly as sent —
  // including the op the engine went on to reject.
  const stream::DeltaLogContents contents = stream::ReadDeltaLog(log_path);
  ASSERT_TRUE(contents.ok()) << contents.message;
  ASSERT_EQ(contents.batches.size(), 1u);
  ASSERT_EQ(contents.batches[0].size(), 2u);
  EXPECT_EQ(contents.batches[0][0], stream::DeltaOp::AddEdge(0, 2));
  EXPECT_EQ(contents.batches[0][1], stream::DeltaOp::AddEdge(0, 0));
  std::remove(log_path.c_str());
}

TEST(SocketServerTest, RequestStopUnblocksServe) {
  ServeFixture fixture = MakeFixture("srv-stop.hsnap");
  util::MetricsRegistry metrics;
  FeatureService service(fixture.snapshot, metrics);
  ServerConfig config;
  config.tcp_port = 0;
  SocketServer server(service, metrics, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread serve_thread([&server] { server.Serve(); });
  server.RequestStop();
  serve_thread.join();  // returns without any client ever connecting
}

}  // namespace
}  // namespace hsgf::serve
