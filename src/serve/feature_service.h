#ifndef HSGF_SERVE_FEATURE_SERVICE_H_
#define HSGF_SERVE_FEATURE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/extractor.h"
#include "graph/het_graph.h"
#include "io/snapshot.h"
#include "stream/delta_log.h"
#include "stream/stream_engine.h"
#include "util/lru_cache.h"
#include "util/metrics.h"
#include "util/stop_token.h"

namespace hsgf::serve {

// Where a served feature vector came from. Wire-stable (sent as u8 in
// GetFeatures responses).
enum class FeatureSource : uint8_t {
  kSnapshot = 0,  // row was persisted in the snapshot
  kCache = 1,     // previously computed on demand, still in the LRU
  kComputed = 2,  // cold miss: censused on demand against the live graph
  kStream = 3,    // incrementally re-censused after a live graph update
};

struct FeatureServiceConfig {
  // Cold-miss LRU budget (entries) and shard count.
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;

  // Wall-clock budget for one on-demand census (<= 0: unlimited). A census
  // that exceeds it is abandoned — partial counts are never served or
  // cached, so everything returned stays bit-identical to a full extraction.
  double cold_census_deadline_s = 10.0;
};

// Type-erased cold-miss census source: the serving tier asks only for a node
// count (range check) and an on-demand census, so any census graph storage —
// in-RAM CSR, out-of-core compressed graph — can back the cold path without
// the serve layer naming its type. Implementations must be safe for
// concurrent RunCensus() calls (the extraction session's contract).
class ColdSource {
 public:
  virtual ~ColdSource() = default;
  virtual graph::NodeId num_nodes() const = 0;
  virtual core::CensusResult RunCensus(graph::NodeId node,
                                       util::StopToken stop) = 0;
};

// Binds a census graph storage to the cold path through its extraction
// session (dmax resolution, metrics, per-call workers all come with it).
template <typename GraphT>
class ExtractorColdSource final : public ColdSource {
 public:
  ExtractorColdSource(const GraphT& graph, const core::ExtractorConfig& config)
      : extractor_(graph, config) {}

  graph::NodeId num_nodes() const override {
    return extractor_.graph().num_nodes();
  }
  core::CensusResult RunCensus(graph::NodeId node,
                               util::StopToken stop) override {
    return extractor_.RunCensus(node, std::move(stop));
  }

 private:
  core::BasicExtractor<GraphT> extractor_;
};

// Answers per-node feature queries from an open snapshot: rows persisted in
// the snapshot are served zero-copy; nodes absent from it are censused on
// demand against an attached graph (same emax/dmax/masking/seed as the
// producing extraction, projected onto the snapshot's vocabulary) behind a
// sharded LRU. All methods are safe to call concurrently: the snapshot is
// immutable, the cache and the metrics registry are internally synchronized,
// and each cold census runs on a private worker.
class FeatureService {
 public:
  // Counters/histograms land in `metrics` under "serve.*" (names in
  // DESIGN.md §"Snapshot format & serving"). The registry must outlive the
  // service.
  FeatureService(io::Snapshot snapshot, util::MetricsRegistry& metrics,
                 FeatureServiceConfig config = {});

  FeatureService(const FeatureService&) = delete;
  FeatureService& operator=(const FeatureService&) = delete;

  // Enables the cold-miss path. The graph must outlive the service and carry
  // the snapshot's label alphabet (the encoding hashes depend on it);
  // returns false with *error set on a mismatch.
  bool AttachGraph(const graph::HetGraph& graph, std::string* error = nullptr);

  // Storage-generic form of AttachGraph: binds any census graph storage
  // modelling num_nodes()/label_names() plus the census graph concept —
  // hsgf_serve uses it to serve cold misses straight from an out-of-core
  // gstore::CompressedGraph without materializing the CSR. Same alphabet
  // validation and census parameterization as AttachGraph.
  template <typename GraphT>
  bool AttachGraphStorage(const GraphT& graph, std::string* error = nullptr) {
    if (graph.label_names() != snapshot_.label_names()) {
      if (error != nullptr) {
        *error = "graph label alphabet does not match the snapshot's";
      }
      return false;
    }
    cold_ = std::make_unique<ExtractorColdSource<GraphT>>(
        graph, ColdExtractorConfig());
    return true;
  }

  // Enables live updates: graph mutations via ApplyUpdate(), per-epoch
  // feature versioning, and incremental rows taking precedence over stale
  // snapshot rows. The engine must outlive the service, carry the snapshot's
  // label alphabet and census parameters, and be pristine (epoch 0, empty
  // vocabulary) — its vocabulary is seeded with the snapshot's columns so
  // streamed features extend, never renumber, the snapshot's coordinate
  // system. The stream path supersedes an attached graph for cold misses.
  // The engine's stream.* metrics go to the service's registry, which must
  // then outlive the engine's last ApplyBatch.
  bool AttachStream(stream::StreamEngine& engine, std::string* error = nullptr);

  const io::Snapshot& snapshot() const { return snapshot_; }
  bool has_graph() const { return cold_ != nullptr; }
  bool has_stream() const { return stream_ != nullptr; }

  enum class Outcome : uint8_t {
    kOk = 0,
    kNotFound = 1,  // node in neither the snapshot nor the attached graph
    kDeadline = 2,  // cold census exceeded cold_census_deadline_s
  };

  struct FeatureReply {
    Outcome outcome = Outcome::kOk;
    FeatureSource source = FeatureSource::kSnapshot;
    // Dense vector in the current vocabulary's column order (empty unless
    // kOk). Without a stream that is the snapshot's column order; with one,
    // the snapshot's columns followed by any streamed extensions.
    std::vector<double> values;
    // Stream epoch the reply reflects (0 without an attached stream).
    uint64_t epoch = 0;
  };

  FeatureReply GetFeatures(graph::NodeId node);

  // As above, but a cold census additionally observes `stop` (linked with
  // the configured cold_census_deadline_s — whichever fires first wins). The
  // event-loop server passes a token combining its shutdown source with the
  // request's deadline, so an abandoned request stops burning a worker.
  FeatureReply GetFeatures(graph::NodeId node, util::StopToken stop);

  // Non-blocking probe of the fast tiers (stream row > snapshot row > LRU >
  // definite not-found). Fills *reply and returns true when the answer
  // needs no cold census; returns false when only an on-demand census can
  // answer, without touching *reply. Lets the server answer hot reads on
  // the event thread and queue only true cold misses to the worker pool.
  bool TryGetFeaturesFast(graph::NodeId node, FeatureReply* reply);

  struct UpdateReply {
    uint64_t epoch = 0;
    int applied = 0;
    int rejected = 0;
    int dirty_roots = 0;
    int new_columns = 0;
    std::string first_error;
  };

  // Applies a delta batch to the attached stream engine, then invalidates
  // exactly the dirty roots in the LRU (plus the whole cache when the
  // vocabulary grew, since cached vectors would be short). Requires
  // has_stream().
  UpdateReply ApplyUpdate(std::span<const stream::DeltaOp> ops);

  struct EpochInfo {
    bool stream_attached = false;
    uint64_t epoch = 0;
    size_t num_columns = 0;
    size_t overlay_rows = 0;
  };

  EpochInfo GetEpoch() const;

  // The current column hashes, in column order (snapshot's, extended by the
  // stream when one is attached).
  std::vector<uint64_t> Vocabulary() const;

  struct VocabularyEntry {
    uint64_t hash = 0;
    double total = 0.0;     // column total of the stored values
    std::string encoding;   // rendered characteristic sequence, or "h<hash>"
  };

  // The k columns with the largest stored totals (descending, ties by
  // hash), with decoded encodings.
  std::vector<VocabularyEntry> TopKEncodings(size_t k) const;

  struct Stats {
    uint32_t num_rows = 0;
    uint32_t num_cols = 0;
    uint32_t num_labels = 0;
    int max_edges = 0;
    int effective_dmax = 0;
    bool graph_attached = false;
    bool stream_attached = false;
    uint64_t epoch = 0;
    size_t stream_columns = 0;
    size_t stream_rows = 0;
    size_t cache_entries = 0;
    size_t cache_capacity = 0;
    int64_t cache_evictions = 0;
  };

  Stats GetStats() const;

 private:
  FeatureReply ComputeCold(graph::NodeId node, const util::StopToken& stop);
  FeatureReply ComputeColdStream(graph::NodeId node,
                                 const util::StopToken& stop);
  // The snapshot-parameterized extraction config every attached cold source
  // is built with (emax/dmax/masking/seed must match the producing run).
  core::ExtractorConfig ColdExtractorConfig() const;

  io::Snapshot snapshot_;
  util::MetricsRegistry& metrics_;
  FeatureServiceConfig config_;
  std::unique_ptr<ColdSource> cold_;        // null until AttachGraph*
  stream::StreamEngine* stream_ = nullptr;  // null until AttachStream
  std::unordered_map<uint64_t, uint32_t> column_of_;
  util::ShardedLruCache<graph::NodeId, std::vector<double>> cache_;

  util::MetricId snapshot_hits_ = util::kInvalidMetric;
  util::MetricId cache_hits_ = util::kInvalidMetric;
  util::MetricId cache_misses_ = util::kInvalidMetric;
  util::MetricId not_found_ = util::kInvalidMetric;
  util::MetricId deadline_exceeded_ = util::kInvalidMetric;
  util::MetricId cold_census_micros_ = util::kInvalidMetric;
  util::MetricId stream_hits_ = util::kInvalidMetric;
  util::MetricId updates_ = util::kInvalidMetric;
  util::MetricId update_dirty_roots_ = util::kInvalidMetric;
  util::MetricId cache_invalidations_ = util::kInvalidMetric;
};

}  // namespace hsgf::serve

#endif  // HSGF_SERVE_FEATURE_SERVICE_H_
