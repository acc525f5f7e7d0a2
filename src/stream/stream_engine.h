#ifndef HSGF_STREAM_STREAM_ENGINE_H_
#define HSGF_STREAM_STREAM_ENGINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/census.h"
#include "graph/het_graph.h"
#include "stream/delta_log.h"
#include "stream/dynamic_graph.h"
#include "util/flat_count_map.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/stop_token.h"
#include "util/thread_annotations.h"

namespace hsgf::stream {

struct StreamEngineConfig {
  core::CensusConfig census;
  // Apply log1p to counts in DenseRow/ProjectCounts, matching the snapshot
  // transform. Raw counts are stored either way, so the transform is exact.
  bool log1p_transform = true;
  // Fold the overlay back into the base CSR once it holds this many entries.
  size_t compact_threshold = size_t{1} << 16;
};

// Incremental feature maintenance over a mutable graph.
//
// The engine owns a DynamicGraph and a growing feature vocabulary. Each
// ApplyBatch() call: (1) computes the dirty-root set of the batch with the
// two-pass (pre + post mutation) reverse BFS of dirty_tracker.h; (2) applies
// the ops; (3) brings every dirty root's row up to date on the materialized
// post graph. A root's census counts the connected edge subsets that hold
// it, so a batch changes a maintained row only by the subsets that hold an
// edge it changed: the row loses the pre-batch subsets through the net-
// removed edges and gains the post-batch subsets through the net-added ones
// (CensusWorker::RunThrough on the pre- and post-batch CSRs). Three kinds of
// dirty root are re-censused in full instead: a first touch (no raw row
// yet — snapshot rows are transformed), a root that a node whose degree
// crossed dmax can reach (the crossing changes which subsets are admitted
// without changing an edge of them), and, under max_subgraphs, a root whose
// old or new total reaches the budget (a truncated count has no exact
// difference); (4) interns the row's hashes under *stable vocabulary union*
// semantics — existing hash -> column assignments never move, and hashes
// never seen before are appended in a deterministic order (roots ascending,
// then new hashes ascending; a delta's new hashes are exactly those of the
// full re-census it replaces), so a replay of the same batches from the
// same base always reproduces the same column numbering; (5) bumps the
// epoch.
//
// Rows store raw int64 census counts; log1p (when configured) is applied at
// read time exactly as the serve layer does for snapshot rows, which is what
// makes incrementally maintained features bit-identical to a from-scratch
// census.
//
// Thread safety: ApplyBatch takes an exclusive lock; every read-side method
// takes a shared lock. Rejected ops are deterministic (they depend only on
// graph state), so a write-ahead log replay — which re-applies full batches,
// rejections included — reconstructs the identical epoch, vocabulary, and
// rows.
class StreamEngine {
 public:
  struct ApplyResult {
    uint64_t epoch = 0;  // epoch after the batch
    int applied = 0;
    int rejected = 0;
    // Roots whose rows this batch may have changed, ascending (the serve
    // layer erases exactly these from its LRU).
    std::vector<graph::NodeId> dirty_roots;
    int new_columns = 0;      // vocabulary growth from this batch
    std::string first_error;  // first rejection message, if any
  };

  StreamEngine(graph::HetGraph base, StreamEngineConfig config);

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  // Registers stream.* metrics in `registry` (names in DESIGN.md §Serve
  // metrics); null detaches them. `registry` must outlive the
  // engine or the next AttachMetrics call.
  void AttachMetrics(util::MetricsRegistry* registry) HSGF_EXCLUDES(mutex_);

  // Pins the column order of an existing vocabulary (e.g. a snapshot's
  // feature hashes, in snapshot column order) before any batch is applied.
  // Must be called at epoch 0 with an empty vocabulary.
  void SeedVocabulary(std::span<const uint64_t> hashes)
      HSGF_EXCLUDES(mutex_);

  // Applies one delta batch. The epoch advances on *every* call — even one
  // whose ops were all rejected — so client and log agree on a batch count;
  // rows are left alone when nothing applied.
  ApplyResult ApplyBatch(std::span<const DeltaOp> ops) HSGF_EXCLUDES(mutex_);

  // --- Read side (shared lock) -------------------------------------------

  uint64_t epoch() const HSGF_EXCLUDES(mutex_);
  size_t num_columns() const HSGF_EXCLUDES(mutex_);
  // Number of roots with an incrementally maintained row.
  size_t overlay_rows() const HSGF_EXCLUDES(mutex_);
  graph::NodeId num_nodes() const HSGF_EXCLUDES(mutex_);
  std::vector<std::string> label_names() const HSGF_EXCLUDES(mutex_);
  const core::CensusConfig& census_config() const { return config_.census; }
  bool log1p_transform() const { return config_.log1p_transform; }
  std::vector<uint64_t> vocabulary() const HSGF_EXCLUDES(mutex_);

  bool HasRow(graph::NodeId node) const HSGF_EXCLUDES(mutex_);

  // Dense feature row at the current vocabulary width (transform applied),
  // or nullopt if `node` has no maintained row.
  std::optional<std::vector<double>> DenseRow(graph::NodeId node) const
      HSGF_EXCLUDES(mutex_);

  // Raw sparse counts of a maintained row, sorted by column (test hook).
  std::optional<std::vector<std::pair<uint32_t, int64_t>>> RowCounts(
      graph::NodeId node) const HSGF_EXCLUDES(mutex_);

  // From-scratch census of `node` on the current graph (the serve layer's
  // cold path). Returns nullopt for out-of-range nodes.
  std::optional<core::CensusResult> CensusNode(graph::NodeId node,
                                               util::StopToken stop = {}) const
      HSGF_EXCLUDES(mutex_);

  // Projects census counts onto the current vocabulary (transform applied).
  // Hashes outside the vocabulary are dropped, mirroring how snapshot
  // serving projects cold-census results onto snapshot columns.
  std::vector<double> ProjectCounts(const util::FlatCountMap& counts) const
      HSGF_EXCLUDES(mutex_);

 private:
  using SparseRow = std::vector<std::pair<uint32_t, int64_t>>;

  // Columns for `hashes` (ascending), interning unseen ones in order.
  uint32_t InternColumn(uint64_t hash) HSGF_REQUIRES(mutex_);

  // Replaces `root`'s row with a full census result.
  void StoreRow(graph::NodeId root, const core::CensusResult& census)
      HSGF_REQUIRES(mutex_);

  // Updates `row` by `removed` (subsets the batch took away) and `added`
  // (subsets it created); counts that reach zero are erased.
  void MergeDelta(const core::CensusResult& removed,
                  const core::CensusResult& added, SparseRow& row)
      HSGF_REQUIRES(mutex_);

  // Ids of the stream.* metrics; all inert until AttachMetrics.
  struct Metrics {
    util::MetricsRegistry* registry = nullptr;
    util::MetricId batches = util::kInvalidMetric;
    util::MetricId dirty_roots = util::kInvalidMetric;
    util::MetricId delta_roots = util::kInvalidMetric;
    util::MetricId first_touch = util::kInvalidMetric;
    util::MetricId dmax_crossing = util::kInvalidMetric;
    util::MetricId budget = util::kInvalidMetric;
    util::MetricId apply_micros = util::kInvalidMetric;
  };

  StreamEngineConfig config_;
  mutable util::SharedMutex mutex_;

  DynamicGraph graph_ HSGF_GUARDED_BY(mutex_);
  uint64_t epoch_ HSGF_GUARDED_BY(mutex_) = 0;

  // column -> hash
  std::vector<uint64_t> hashes_ HSGF_GUARDED_BY(mutex_);
  // hash -> column
  std::unordered_map<uint64_t, uint32_t> column_of_ HSGF_GUARDED_BY(mutex_);
  // node -> sparse row of raw counts; only roots some batch dirtied have
  // entries.
  std::unordered_map<graph::NodeId, SparseRow> rows_ HSGF_GUARDED_BY(mutex_);

  Metrics metrics_ HSGF_GUARDED_BY(mutex_);
};

}  // namespace hsgf::stream

#endif  // HSGF_STREAM_STREAM_ENGINE_H_
