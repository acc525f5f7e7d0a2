// Seed-corpus generator for the fuzz/ harnesses. Writes deterministic seed
// inputs under DIR/{snapshot,protocol,graph,stream}/ — a real saved
// snapshot, every request/response wire shape (with the harness's one-byte
// mode prefix), a spread of valid and near-valid graph texts, and delta logs
// in the states a crash leaves behind — so the fuzzers start from deep
// program states instead of rediscovering the formats byte by byte.
//
// Usage: make_fuzz_corpus DIR
#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/extractor.h"
#include "data/generator.h"
#include "data/schema.h"
#include "graph/digraph.h"
#include "graph/io.h"
#include "gstore/cgraph_format.h"
#include "gstore/cgraph_writer.h"
#include "io/snapshot.h"
#include "router/shard_map.h"
#include "serve/protocol.h"
#include "stream/delta_log.h"

namespace {

bool WriteSeed(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// One-byte harness mode prefix + encoded payload (see fuzz_protocol.cc).
std::string Mode(uint8_t mode, const std::string& payload) {
  std::string bytes(1, static_cast<char>(mode));
  bytes += payload;
  return bytes;
}

bool MakeDir(const std::string& path) {
  if (mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: cannot mkdir %s\n", path.c_str());
    return false;
  }
  return true;
}

bool WriteSnapshotSeeds(const std::string& dir) {
  using hsgf::graph::NodeId;
  const hsgf::graph::HetGraph graph =
      hsgf::data::MakeNetwork(hsgf::data::LoadLikeSchema(0.05), 3);
  hsgf::core::ExtractorConfig config;
  config.census.max_edges = 3;
  config.census.keep_encodings = true;
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < graph.num_nodes() && v < 8; ++v) nodes.push_back(v);
  hsgf::core::Extractor extractor(graph, config);
  const hsgf::core::ExtractionResult result = extractor.Run(nodes);
  const hsgf::io::SnapshotContents contents =
      hsgf::io::MakeSnapshotContents(graph, nodes, result, config);
  hsgf::io::SnapshotError error;
  if (!hsgf::io::SaveSnapshot(dir + "/valid.hsnap", contents, &error)) {
    std::fprintf(stderr, "error: SaveSnapshot: %s\n", error.message.c_str());
    return false;
  }
  // A bare header (all-zero counts) and a magic-only stub cover the
  // truncation ladder from the other side.
  std::string magic_only(hsgf::io::snapshot_internal::kMagic,
                         sizeof(hsgf::io::snapshot_internal::kMagic));
  return WriteSeed(dir + "/magic_only.bin", magic_only) &&
         WriteSeed(dir + "/empty.bin", "");
}

bool WriteProtocolSeeds(const std::string& dir) {
  using hsgf::serve::MessageType;
  using hsgf::serve::Request;
  using hsgf::serve::Response;
  using hsgf::serve::StatusCode;

  Request features;
  features.type = MessageType::kGetFeatures;
  features.node = 42;
  Request topk;
  topk.type = MessageType::kTopKEncodings;
  topk.k = 5;
  Request vocab;
  vocab.type = MessageType::kGetVocabulary;
  Request stats;
  stats.type = MessageType::kStats;
  Request shutdown;
  shutdown.type = MessageType::kShutdown;
  Request apply;
  apply.type = MessageType::kApplyUpdate;
  apply.ops = {hsgf::stream::DeltaOp::AddNode(1),
               hsgf::stream::DeltaOp::AddEdge(3, 9),
               hsgf::stream::DeltaOp::RemoveEdge(3, 9)};
  Request epoch_req;
  epoch_req.type = MessageType::kGetEpoch;
  Request hello;
  hello.type = MessageType::kHello;
  hello.max_version = hsgf::serve::kMaxSupportedProtocol;
  Request batch;
  batch.type = MessageType::kGetFeaturesBatch;
  batch.batch_nodes = {0, 42, -3, 1 << 16};
  Request shard_map_req;
  shard_map_req.type = MessageType::kGetShardMap;
  // A v2-framed request (mode 11): id/deadline prefix ahead of the body.
  Request deadline_features = features;
  deadline_features.request_id = 0x1001;
  deadline_features.deadline_ms = 250;
  bool ok = WriteSeed(dir + "/req_features.bin",
                      Mode(0, EncodeRequest(features))) &&
            WriteSeed(dir + "/req_topk.bin", Mode(0, EncodeRequest(topk))) &&
            WriteSeed(dir + "/req_vocab.bin", Mode(0, EncodeRequest(vocab))) &&
            WriteSeed(dir + "/req_stats.bin", Mode(0, EncodeRequest(stats))) &&
            WriteSeed(dir + "/req_shutdown.bin",
                      Mode(0, EncodeRequest(shutdown))) &&
            WriteSeed(dir + "/req_apply_update.bin",
                      Mode(0, EncodeRequest(apply))) &&
            WriteSeed(dir + "/req_get_epoch.bin",
                      Mode(0, EncodeRequest(epoch_req))) &&
            WriteSeed(dir + "/req_hello.bin", Mode(0, EncodeRequest(hello))) &&
            WriteSeed(dir + "/req_batch.bin", Mode(0, EncodeRequest(batch))) &&
            WriteSeed(dir + "/req_get_shard_map.bin",
                      Mode(0, EncodeRequest(shard_map_req))) &&
            WriteSeed(dir + "/req_v2_features.bin",
                      Mode(11, EncodeRequest(deadline_features,
                                             hsgf::serve::kProtocolV2))) &&
            WriteSeed(dir + "/req_v2_batch.bin",
                      Mode(11, EncodeRequest(batch,
                                             hsgf::serve::kProtocolV2))) &&
            WriteSeed(dir + "/req_v3_shard_map.bin",
                      Mode(13, EncodeRequest(shard_map_req,
                                             hsgf::serve::kProtocolV3)));

  Response values;
  values.values = {1.5, 0.0, -2.25};
  values.source = 2;
  values.epoch = 7;
  Response hashes;
  hashes.hashes = {0x1234567890abcdefULL, 7};
  Response entries;
  entries.entries.push_back({0xfeedULL, 3.5, "paper21 load1"});
  entries.entries.push_back({0xbeefULL, 1.0, ""});
  Response text;
  text.text = "{\"requests\":0}";
  Response failure;
  failure.status = StatusCode::kNotFound;
  failure.text = "node 9 not found";
  Response empty;
  Response update;
  update.epoch = 12;
  update.applied = 2;
  update.rejected = 1;
  update.dirty_roots = 17;
  update.new_columns = 3;
  Response epoch_info;
  epoch_info.stream_attached = 1;
  epoch_info.epoch = 12;
  epoch_info.num_columns = 64;
  epoch_info.overlay_rows = 9;
  Response hello_reply;
  hello_reply.agreed_version = hsgf::serve::kProtocolV2;
  Response batch_reply;
  batch_reply.batch.push_back(
      {StatusCode::kOk, 2, 7, {1.5, 0.0, -2.25}, ""});
  batch_reply.batch.push_back(
      {StatusCode::kNotFound, 0, 0, {}, "node 9 not found"});
  batch_reply.batch.push_back(
      {StatusCode::kOverloaded, 0, 0, {}, "cold-census queue is full"});
  Response shed;
  shed.status = StatusCode::kOverloaded;
  shed.text = "cold-census queue is full (limit 64); retry later";
  shed.request_id = 0x2002;
  Response hello_v3_reply;
  hello_v3_reply.agreed_version = hsgf::serve::kProtocolV3;
  hsgf::router::ShardMap shard_map = hsgf::router::ShardMap::Build(
      /*num_shards=*/3, /*seed=*/42, /*vnodes_per_shard=*/8);
  shard_map.set_endpoints(0, {"tcp:7001", "tcp:7101"});
  shard_map.set_endpoints(1, {"unix:/tmp/hsgf-shard1.sock"});
  shard_map.set_endpoints(2, {"tcp:7003"});
  Response shard_map_reply;
  shard_map_reply.shard_map_blob = shard_map.Serialize();
  Response unavailable;
  unavailable.status = StatusCode::kUnavailable;
  unavailable.text = "shard 1: connect tcp:7002: connection refused";
  unavailable.request_id = 0x3003;
  // v2/v3 response seeds (modes 12/14) carry a second byte naming the type.
  const auto V2Mode = [](uint8_t type, const std::string& payload) {
    std::string bytes(1, static_cast<char>(12));
    bytes.push_back(static_cast<char>(type));
    bytes += payload;
    return bytes;
  };
  const auto V3Mode = [](uint8_t type, const std::string& payload) {
    std::string bytes(1, static_cast<char>(14));
    bytes.push_back(static_cast<char>(type));
    bytes += payload;
    return bytes;
  };
  ok = ok &&
       WriteSeed(dir + "/resp_features.bin",
                 Mode(1, EncodeResponse(MessageType::kGetFeatures, values))) &&
       WriteSeed(dir + "/resp_vocab.bin",
                 Mode(2, EncodeResponse(MessageType::kGetVocabulary, hashes))) &&
       WriteSeed(dir + "/resp_topk.bin",
                 Mode(3, EncodeResponse(MessageType::kTopKEncodings, entries))) &&
       WriteSeed(dir + "/resp_stats.bin",
                 Mode(4, EncodeResponse(MessageType::kStats, text))) &&
       WriteSeed(dir + "/resp_error.bin",
                 Mode(1, EncodeResponse(MessageType::kGetFeatures, failure))) &&
       WriteSeed(dir + "/resp_shutdown.bin",
                 Mode(5, EncodeResponse(MessageType::kShutdown, empty))) &&
       WriteSeed(dir + "/resp_apply_update.bin",
                 Mode(6, EncodeResponse(MessageType::kApplyUpdate, update))) &&
       WriteSeed(dir + "/resp_get_epoch.bin",
                 Mode(7, EncodeResponse(MessageType::kGetEpoch, epoch_info))) &&
       WriteSeed(dir + "/resp_hello.bin",
                 Mode(8, EncodeResponse(MessageType::kHello, hello_reply))) &&
       WriteSeed(dir + "/resp_batch.bin",
                 Mode(9, EncodeResponse(MessageType::kGetFeaturesBatch,
                                        batch_reply))) &&
       WriteSeed(dir + "/resp_v2_features.bin",
                 V2Mode(1, EncodeResponse(MessageType::kGetFeatures, values,
                                          hsgf::serve::kProtocolV2))) &&
       WriteSeed(dir + "/resp_v2_overloaded.bin",
                 V2Mode(1, EncodeResponse(MessageType::kGetFeatures, shed,
                                          hsgf::serve::kProtocolV2))) &&
       WriteSeed(dir + "/resp_v2_batch.bin",
                 V2Mode(9, EncodeResponse(MessageType::kGetFeaturesBatch,
                                          batch_reply,
                                          hsgf::serve::kProtocolV2))) &&
       WriteSeed(dir + "/resp_shard_map.bin",
                 Mode(10, EncodeResponse(MessageType::kGetShardMap,
                                         shard_map_reply))) &&
       WriteSeed(dir + "/resp_v3_hello.bin",
                 Mode(8, EncodeResponse(MessageType::kHello,
                                        hello_v3_reply))) &&
       WriteSeed(dir + "/resp_v3_shard_map.bin",
                 V3Mode(10, EncodeResponse(MessageType::kGetShardMap,
                                           shard_map_reply,
                                           hsgf::serve::kProtocolV3))) &&
       WriteSeed(dir + "/resp_v3_unavailable.bin",
                 V3Mode(1, EncodeResponse(MessageType::kGetFeatures,
                                          unavailable,
                                          hsgf::serve::kProtocolV3))) &&
       // Mode 15: the shard-map blob parser — one canonical blob, one with
       // its CRC clipped off.
       WriteSeed(dir + "/shard_map_valid.bin",
                 Mode(15, shard_map.Serialize())) &&
       WriteSeed(dir + "/shard_map_truncated.bin",
                 Mode(15, shard_map.Serialize().substr(
                              0, shard_map.Serialize().size() - 4)));
  return ok;
}

// Delta-log seeds for fuzz_delta_log: an intact two-batch log written by the
// real writer, then the post-crash shapes its parser must absorb (torn tail,
// corrupt record, bare header) and the ones it must reject (wrong magic).
bool WriteStreamSeeds(const std::string& dir) {
  using hsgf::stream::DeltaOp;
  const std::vector<DeltaOp> batch1 = {DeltaOp::AddNode(1),
                                       DeltaOp::AddEdge(0, 4)};
  const std::vector<DeltaOp> batch2 = {DeltaOp::RemoveEdge(0, 4),
                                       DeltaOp::AddEdge(2, 5)};
  const std::string valid_path = dir + "/valid.bin";
  {
    hsgf::stream::DeltaLogWriter writer;
    std::string error;
    if (!writer.Open(valid_path, &error) ||
        !writer.Append({batch1.data(), batch1.size()}, &error) ||
        !writer.Append({batch2.data(), batch2.size()}, &error)) {
      std::fprintf(stderr, "error: delta log: %s\n", error.c_str());
      return false;
    }
  }
  std::ifstream in(valid_path, std::ios::binary);
  const std::string valid((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (valid.size() <= hsgf::stream::kDeltaLogHeaderBytes) {
    std::fprintf(stderr, "error: delta log seed came out empty\n");
    return false;
  }

  std::string bad_crc = valid;
  bad_crc.back() = static_cast<char>(bad_crc.back() ^ 0x5a);
  std::string bad_magic = valid;
  bad_magic[0] = 'X';
  // The harness decodes bytes after the first as a bare batch payload, so a
  // one-byte pad puts a canonical kApplyUpdate body on that surface too.
  const std::string payload =
      '\0' + hsgf::stream::EncodeBatchPayload({batch1.data(), batch1.size()});
  // A batch in range of the harness's 36-node engine graph: a ring edge
  // removed and re-added, a chord that crosses dmax, a new node wired in.
  const std::vector<DeltaOp> churn = {
      DeltaOp::RemoveEdge(4, 5), DeltaOp::AddEdge(8, 26),
      DeltaOp::AddEdge(4, 5),    DeltaOp::RemoveEdge(13, 14),
      DeltaOp::AddNode(0),       DeltaOp::AddEdge(36, 19),
      DeltaOp::AddEdge(36, 20)};
  const std::string engine_payload =
      '\0' + hsgf::stream::EncodeBatchPayload({churn.data(), churn.size()});
  return WriteSeed(dir + "/torn_tail.bin",
                   valid.substr(0, valid.size() - 3)) &&
         WriteSeed(dir + "/bad_crc.bin", bad_crc) &&
         WriteSeed(dir + "/header_only.bin",
                   valid.substr(0, hsgf::stream::kDeltaLogHeaderBytes)) &&
         WriteSeed(dir + "/bad_magic.bin", bad_magic) &&
         WriteSeed(dir + "/batch_payload.bin", payload) &&
         WriteSeed(dir + "/engine_batch.bin", engine_payload) &&
         WriteSeed(dir + "/empty.bin", "");
}

// Compressed-graph-container seeds for fuzz_cgraph: real containers written
// by the production writer (undirected at two block granularities, plus a
// directed one), a truncated copy, and the magic-only / empty stubs that
// cover the identity ladder from the short side.
bool WriteCGraphSeeds(const std::string& dir) {
  using hsgf::graph::NodeId;
  const hsgf::graph::HetGraph graph =
      hsgf::data::MakeNetwork(hsgf::data::LoadLikeSchema(0.05), 7);
  hsgf::gstore::CGraphError error;
  if (!hsgf::gstore::WriteCompressedGraph(dir + "/valid.hscg", graph,
                                          &error)) {
    std::fprintf(stderr, "error: cgraph seed: %s\n", error.ToString().c_str());
    return false;
  }
  // Tiny blocks: many BlockRefs and node runs crossing block boundaries.
  hsgf::gstore::CGraphWriterOptions tiny;
  tiny.block_target_entries = 4;
  if (!hsgf::gstore::WriteCompressedGraph(dir + "/tiny_blocks.hscg", graph,
                                          &error, tiny)) {
    std::fprintf(stderr, "error: cgraph seed: %s\n", error.ToString().c_str());
    return false;
  }
  hsgf::graph::DiGraphBuilder builder({"user", "item"});
  for (NodeId v = 0; v < 12; ++v) builder.AddNode(v % 2);
  for (NodeId u = 0; u < 12; ++u) {
    builder.AddArc(u, (u + 1) % 12);
    builder.AddArc(u, (u + 5) % 12);
  }
  const hsgf::graph::DirectedHetGraph digraph = std::move(builder).Build();
  if (!hsgf::gstore::WriteCompressedGraph(dir + "/directed.hscg", digraph,
                                          &error, tiny)) {
    std::fprintf(stderr, "error: cgraph seed: %s\n", error.ToString().c_str());
    return false;
  }

  std::ifstream in(dir + "/valid.hscg", std::ios::binary);
  const std::string valid((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (valid.size() <= sizeof(hsgf::gstore::cgraph_internal::Header)) {
    std::fprintf(stderr, "error: cgraph seed came out empty\n");
    return false;
  }
  const std::string magic_only(hsgf::gstore::cgraph_internal::kMagic,
                               sizeof(hsgf::gstore::cgraph_internal::kMagic));
  return WriteSeed(dir + "/truncated.bin",
                   valid.substr(0, valid.size() * 2 / 3)) &&
         WriteSeed(dir + "/magic_only.bin", magic_only) &&
         WriteSeed(dir + "/empty.bin", "");
}

bool WriteGraphSeeds(const std::string& dir) {
  // A real generated network, serialized by the writer itself.
  const hsgf::graph::HetGraph graph =
      hsgf::data::MakeNetwork(hsgf::data::LoadLikeSchema(0.05), 5);
  std::ostringstream out;
  hsgf::graph::WriteGraph(graph, out);
  bool ok = WriteSeed(dir + "/generated.txt", out.str());

  ok = ok && WriteSeed(dir + "/tiny.txt",
                       "# hsgf-graph v1\n"
                       "labels user item\n"
                       "node 0 0\n"
                       "node 1 1\n"
                       "node 2 0\n"
                       "edge 0 1\n"
                       "edge 1 2\n");
  ok = ok && WriteSeed(dir + "/no_edges.txt",
                       "labels only\nnode 0 0\n");
  ok = ok && WriteSeed(dir + "/comments.txt",
                       "# comment\n\n# another\nlabels a\nnode 0 0\n");
  ok = ok && WriteSeed(dir + "/bad_dense.txt",
                       "labels a\nnode 1 0\n");
  ok = ok && WriteSeed(dir + "/empty.txt", "");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_fuzz_corpus DIR\n");
    return 2;
  }
  const std::string root = argv[1];
  if (!MakeDir(root) || !MakeDir(root + "/snapshot") ||
      !MakeDir(root + "/protocol") || !MakeDir(root + "/graph") ||
      !MakeDir(root + "/stream") || !MakeDir(root + "/cgraph")) {
    return 1;
  }
  if (!WriteSnapshotSeeds(root + "/snapshot") ||
      !WriteProtocolSeeds(root + "/protocol") ||
      !WriteGraphSeeds(root + "/graph") ||
      !WriteStreamSeeds(root + "/stream") ||
      !WriteCGraphSeeds(root + "/cgraph")) {
    return 1;
  }
  std::fprintf(stderr, "corpus written under %s\n", root.c_str());
  return 0;
}
