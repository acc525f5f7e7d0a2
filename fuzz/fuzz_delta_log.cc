// Fuzz harness for the streaming delta-log parser and the batch-payload
// codec (src/stream/delta_log.cc) — the bytes a daemon replays from disk
// after a crash, i.e. exactly the torn/corrupt inputs the format exists to
// survive.
//
// Three surfaces share each input: the whole buffer is parsed as a
// delta-log file (header + CRC-framed records), and the buffer after the
// first byte is decoded as a bare batch payload. Both decoders are strict
// and the encoders canonical, so anything that decodes must re-encode to
// identical bytes; a silent misread becomes a crash, not a missed bug. The
// decoded batch is then applied to a StreamEngine whose rows a fixed batch
// has already filled, so most of its dirty roots take the changed-edge
// delta path, and every row must still equal a fresh census.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/census.h"
#include "graph/builder.h"
#include "graph/het_graph.h"
#include "stream/delta_log.h"
#include "stream/dynamic_graph.h"
#include "stream/stream_engine.h"
#include "util/check.h"

namespace {

constexpr size_t kMaxInputBytes = 1u << 20;
// Longer decoded batches skip surface 3: it censuses every node per input.
constexpr size_t kMaxEngineOps = 64;

using hsgf::graph::NodeId;
using hsgf::stream::DeltaOp;
using Counts = std::vector<std::pair<uint64_t, int64_t>>;

// Small enough to census whole per input; dmax 2 blocks every node the
// chords give a third edge, so ops cross dmax both ways all the time.
hsgf::core::CensusConfig EngineCensus() {
  hsgf::core::CensusConfig config;
  config.max_edges = 3;
  config.max_degree = 2;
  return config;
}

// 36 nodes in a ring with a chord every fifth node, two labels.
hsgf::graph::HetGraph BaseGraph() {
  constexpr NodeId kNodes = 36;
  hsgf::graph::GraphBuilder builder({"a", "b"});
  for (NodeId v = 0; v < kNodes; ++v) builder.AddNode(v % 3 == 0 ? 1 : 0);
  for (NodeId v = 0; v < kNodes; ++v) builder.AddEdge(v, (v + 1) % kNodes);
  for (NodeId v = 0; v < kNodes; v += 5) builder.AddEdge(v, (v + 11) % kNodes);
  return std::move(builder).Build();
}

// Touches every third node, so the dirty roots it leaves cover the graph:
// chords added and ring edges removed, crossing dmax both ways.
std::vector<DeltaOp> WarmupBatch() {
  std::vector<DeltaOp> ops;
  for (NodeId v = 0; v < 36; v += 3) {
    ops.push_back(v % 2 == 0 ? DeltaOp::AddEdge(v, (v + 17) % 36)
                             : DeltaOp::RemoveEdge(v, v + 1));
  }
  return ops;
}

Counts CountsOf(const hsgf::core::CensusResult& result) {
  Counts counts;
  result.counts.ForEach([&counts](uint64_t hash, int64_t count) {
    counts.emplace_back(hash, count);
  });
  std::sort(counts.begin(), counts.end());
  return counts;
}

// Surface 3: warm-up batch, then `ops`, then every row against a census.
void CheckEngineRows(const std::vector<DeltaOp>& ops) {
  static const hsgf::graph::HetGraph base = BaseGraph();
  static const std::vector<Counts> base_counts = [] {
    std::vector<Counts> counts;
    hsgf::core::CensusWorker worker(base, EngineCensus());
    hsgf::core::CensusResult result;
    for (NodeId v = 0; v < base.num_nodes(); ++v) {
      worker.Run(v, result);
      counts.push_back(CountsOf(result));
    }
    return counts;
  }();
  static const std::vector<DeltaOp> warmup = WarmupBatch();

  hsgf::stream::StreamEngineConfig config;
  config.census = EngineCensus();
  hsgf::stream::StreamEngine engine(base, config);
  hsgf::stream::DynamicGraph mirror(base);
  for (const std::vector<DeltaOp>* batch : {&warmup, &ops}) {
    engine.ApplyBatch({batch->data(), batch->size()});
    for (const DeltaOp& op : *batch) mirror.Apply(op);
    HSGF_CHECK_GE(engine.overlay_rows() * 4, size_t{3} * base.num_nodes())
        << "the warm-up batch left most nodes without a maintained row";
  }

  const hsgf::graph::HetGraph& graph = mirror.Materialize();
  HSGF_CHECK_EQ(engine.num_nodes(), graph.num_nodes());
  const std::vector<uint64_t> vocabulary = engine.vocabulary();
  hsgf::core::CensusWorker worker(graph, config.census);
  hsgf::core::CensusResult result;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    worker.Run(v, result);
    const Counts fresh = CountsOf(result);
    const auto row = engine.RowCounts(v);
    if (!row) {
      HSGF_CHECK(v < base.num_nodes()) << "new node " << v << " has no row";
      HSGF_CHECK(fresh == base_counts[v])
          << "node " << v << " changed but has no maintained row";
      continue;
    }
    Counts served;
    for (const auto& [column, count] : *row) {
      served.emplace_back(vocabulary[column], count);
    }
    std::sort(served.begin(), served.end());
    HSGF_CHECK(served == fresh)
        << "maintained row of node " << v << " differs from a fresh census";
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) return 0;

  // Surface 1: the full delta-log format. Every decoded batch must survive
  // an encode/decode round trip unchanged.
  const hsgf::stream::DeltaLogContents contents =
      hsgf::stream::ParseDeltaLog({data, size});
  if (contents.ok()) {
    HSGF_CHECK(contents.valid_bytes <= size) << "valid prefix beyond input";
    for (const std::vector<hsgf::stream::DeltaOp>& batch : contents.batches) {
      const std::string payload = hsgf::stream::EncodeBatchPayload(
          {batch.data(), batch.size()});
      std::vector<hsgf::stream::DeltaOp> reparsed;
      HSGF_CHECK(hsgf::stream::DecodeBatchPayload(
          {reinterpret_cast<const uint8_t*>(payload.data()), payload.size()},
          &reparsed))
          << "canonical re-encoding failed to decode";
      HSGF_CHECK(reparsed == batch) << "batch round-trip changed ops";
    }
  }

  // Surface 2: a bare batch payload (the kApplyUpdate request body).
  if (size < 1) return 0;
  std::vector<hsgf::stream::DeltaOp> ops;
  if (!hsgf::stream::DecodeBatchPayload({data + 1, size - 1}, &ops)) return 0;
  const std::string reencoded =
      hsgf::stream::EncodeBatchPayload({ops.data(), ops.size()});
  HSGF_CHECK_EQ(reencoded.size(), size - 1)
      << "payload round-trip changed length";
  HSGF_CHECK(reencoded.empty() ||
             std::memcmp(reencoded.data(), data + 1, size - 1) == 0)
      << "payload round-trip changed bytes";

  // Surface 3: the same batch through a StreamEngine's row maintenance.
  if (ops.size() <= kMaxEngineOps) CheckEngineRows(ops);
  return 0;
}
