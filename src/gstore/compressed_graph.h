#ifndef HSGF_GSTORE_COMPRESSED_GRAPH_H_
#define HSGF_GSTORE_COMPRESSED_GRAPH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/census.h"
#include "core/directed_census.h"
#include "core/extractor.h"
#include "graph/het_graph.h"
#include "gstore/block_cache.h"
#include "gstore/cgraph_format.h"
#include "util/check.h"
#include "util/metrics.h"

namespace hsgf::gstore {

struct CGraphOptions {
  // Budget for the decoded-block cache, in bytes. Converted to whole-block
  // slots using the container's block_target_entries; at least one slot per
  // cache shard is always kept.
  size_t cache_bytes = 64ull << 20;
};

class GraphView;
class DirectedGraphView;

// Out-of-core compressed graph: an mmap'd HSGFCGRF container whose neighbor
// blocks are demand-paged through a shared BlockCache. Metadata (labels,
// per-node index, block directory) is validated eagerly at Open(); neighbor
// blocks are CRC-checked lazily, the first time each is decoded.
//
// The object itself only exposes O(1) per-node metadata. Adjacency access
// goes through GraphView / DirectedGraphView, which satisfy the census graph
// concept (census.h) and pin a small memo of decoded blocks. The same
// CompressedGraph is safe to share read-only across threads; views are
// single-threaded cursors, one per worker.
class CompressedGraph {
 public:
  // Maps and validates the container. Returns nullptr and fills `error` on
  // failure. Validation covers: magic, version, header size, section table
  // geometry, metadata CRC, label-name table, per-node label range, block
  // directory contiguity, and the node-index-vs-block walk consistency that
  // block decoding later relies on — everything except the blob payload,
  // whose per-block CRCs are checked at decode time.
  static std::unique_ptr<CompressedGraph> Open(
      const std::string& path, const CGraphOptions& options = {},
      CGraphError* error = nullptr);

  CompressedGraph(const CompressedGraph&) = delete;
  CompressedGraph& operator=(const CompressedGraph&) = delete;

  bool directed() const {
    return (header_->flags & cgraph_internal::kFlagDirected) != 0;
  }
  graph::NodeId num_nodes() const {
    return static_cast<graph::NodeId>(header_->num_nodes);
  }
  int num_labels() const { return static_cast<int>(header_->num_labels); }
  int64_t num_edges() const {
    return static_cast<int64_t>(header_->num_edges);
  }

  graph::Label label(graph::NodeId v) const { return labels_[v]; }
  const std::string& label_name(graph::Label l) const {
    return label_names_[l];
  }
  const std::vector<std::string>& label_names() const { return label_names_; }

  // Undirected degree, or out-degree for a directed container.
  int degree(graph::NodeId v) const {
    return static_cast<int>(index_[v].degree);
  }
  int out_degree(graph::NodeId v) const { return degree(v); }
  int in_degree(graph::NodeId v) const {
    HSGF_DCHECK(directed());
    return static_cast<int>(in_degrees_[v]);
  }
  int total_degree(graph::NodeId v) const {
    return out_degree(v) + in_degree(v);
  }

  uint32_t num_blocks() const { return header_->num_blocks; }
  uint32_t block_target_entries() const {
    return header_->block_target_entries;
  }
  uint64_t file_size() const { return file_size_; }
  uint64_t blob_bytes() const {
    return header_->sections[cgraph_internal::kBlocks].size;
  }

  // Registers gstore.* metrics (cache counters + bytes_mapped/blocks_total
  // gauges). Call before sharing across threads; `registry` must outlive
  // this graph.
  void AttachMetrics(util::MetricsRegistry* registry);

  // Returns block `block` through the cache, decoding on a miss. Corruption
  // on this hot path is fatal (the container was validated at Open, so a
  // failing block CRC means the file changed underneath us).
  std::shared_ptr<const DecodedBlock> GetBlock(uint32_t block) const;

  // Cache-bypassing decode with typed errors (kBlockCrcMismatch /
  // kMalformed) instead of fatal checks. Used by `hsgf_cgraph --verify`,
  // tests, and the fuzzer.
  bool VerifyBlock(uint32_t block, CGraphError* error) const;

  // Asks the kernel to start paging in `block`'s compressed bytes
  // (madvise WILLNEED on the page-rounded blob range). Purely a hint: no
  // decode, no cache interaction, out-of-range ids are ignored. Views issue
  // it for block b+1 when a sequential walk fetches block b, so the next
  // block's page-in overlaps the current block's decode; counted by the
  // gstore.prefetch_issued metric.
  void PrefetchBlock(uint32_t block) const;

  // Fully decodes an undirected container back into an in-memory CSR graph.
  // Block-sequential, so it streams the blob once. The result is
  // bit-identical to the HetGraph the container was written from.
  graph::HetGraph ToHetGraph() const;

  // Per-worker adjacency cursors. Requires !directed() / directed().
  GraphView MakeView() const;
  DirectedGraphView MakeDirectedView() const;

 private:
  friend class GraphView;
  friend class DirectedGraphView;

  struct Mapping {
    Mapping(void* data, size_t size) : data(data), size(size) {}
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
    ~Mapping();

    void* data;
    size_t size;
  };

  CompressedGraph() = default;

  const cgraph_internal::NodeIndexEntry& index(graph::NodeId v) const {
    return index_[v];
  }
  uint32_t run_length(graph::NodeId v) const {
    return index_[v].degree + (directed() ? in_degrees_[v] : 0);
  }
  bool DecodeBlockInto(uint32_t block, DecodedBlock* out,
                       CGraphError* error) const;

  std::shared_ptr<const Mapping> mapping_;
  uint64_t file_size_ = 0;
  const cgraph_internal::Header* header_ = nullptr;
  const uint8_t* blob_ = nullptr;
  const uint8_t* labels_ = nullptr;
  const cgraph_internal::NodeIndexEntry* index_ = nullptr;
  const uint32_t* in_degrees_ = nullptr;
  const cgraph_internal::BlockRef* block_dir_ = nullptr;
  std::vector<std::string> label_names_;

  // Logically const: GetBlock() only mutates cache internals, under the
  // cache's own shard locks.
  std::unique_ptr<BlockCache> cache_;
  util::MetricsRegistry* registry_ = nullptr;
  util::MetricId prefetch_issued_ = util::kInvalidMetric;
};

// Per-view pin memo size. The census traversal alternates between a node's
// block and its neighbors' blocks, so a single pinned block would re-enter
// the shared cache (and take a shard lock) on nearly every access once the
// frontier spans two blocks. A small direct-mapped memo keeps the working
// set lock-free; 16 slots covers the frontier of every workload we measure
// while bounding per-view memory to 16 decoded blocks.
inline constexpr uint32_t kViewMemoSlots = 16;

// Single-threaded adjacency cursor satisfying the census graph concept
// (census.h): neighbors(v) pins the decoded block owning v's run and returns
// a span into it. Pinned blocks are held in a direct-mapped memo, so a span
// stays valid at least until a later neighbors() call on the SAME view needs
// a different block with the same memo slot (block % kViewMemoSlots) — a
// strict superset of the one-call contract BasicCensusWorker is written
// against. Copying a view is cheap; each worker thread must use its own
// copy.
class GraphView {
 public:
  explicit GraphView(const CompressedGraph* graph) : graph_(graph) {
    HSGF_DCHECK(!graph->directed());
  }

  graph::NodeId num_nodes() const { return graph_->num_nodes(); }
  int num_labels() const { return graph_->num_labels(); }
  graph::Label label(graph::NodeId v) const { return graph_->label(v); }
  int degree(graph::NodeId v) const { return graph_->degree(v); }

  std::span<const graph::NodeId> neighbors(graph::NodeId v) const {
    const cgraph_internal::NodeIndexEntry& entry = graph_->index(v);
    if (entry.degree == 0) return {};
    const DecodedBlock& block = Pin(entry.block);
    return {block.entries.data() + entry.offset,
            static_cast<size_t>(entry.degree)};
  }

 private:
  const DecodedBlock& Pin(uint32_t block) const {
    const uint32_t slot = block % kViewMemoSlots;
    if (pinned_block_[slot] != block || pinned_[slot] == nullptr) {
      pinned_[slot] = graph_->GetBlock(block);
      pinned_block_[slot] = block;
      // Sequential-walk prefetch: two consecutive fetches b-1, b predict
      // b+1 next (block-ordered scans — ToHetGraph-style streaming, batched
      // roots walking id-adjacent frontiers), so hint its page-in now and
      // the madvise overlaps this block's decode. Detection is on fetches,
      // not pins, so the memo-hit fast path stays untouched.
      if (last_fetched_ != UINT32_MAX && block == last_fetched_ + 1) {
        graph_->PrefetchBlock(block + 1);
      }
      last_fetched_ = block;
    }
    return *pinned_[slot];
  }

  const CompressedGraph* graph_;
  mutable std::array<std::shared_ptr<const DecodedBlock>, kViewMemoSlots>
      pinned_;
  mutable std::array<uint32_t, kViewMemoSlots> pinned_block_ = [] {
    std::array<uint32_t, kViewMemoSlots> init;
    init.fill(UINT32_MAX);
    return init;
  }();
  // Most recent block actually fetched (not memo-hit); UINT32_MAX = none.
  mutable uint32_t last_fetched_ = UINT32_MAX;
};

// Directed counterpart: successors/predecessors of v live in the same block
// (a node's run is its out-list immediately followed by its in-list), so
// interleaving the two calls for one node never repins.
class DirectedGraphView {
 public:
  explicit DirectedGraphView(const CompressedGraph* graph) : graph_(graph) {
    HSGF_DCHECK(graph->directed());
  }

  graph::NodeId num_nodes() const { return graph_->num_nodes(); }
  int num_labels() const { return graph_->num_labels(); }
  graph::Label label(graph::NodeId v) const { return graph_->label(v); }
  int out_degree(graph::NodeId v) const { return graph_->out_degree(v); }
  int in_degree(graph::NodeId v) const { return graph_->in_degree(v); }
  int total_degree(graph::NodeId v) const { return graph_->total_degree(v); }

  std::span<const graph::NodeId> successors(graph::NodeId v) const {
    const cgraph_internal::NodeIndexEntry& entry = graph_->index(v);
    if (entry.degree == 0) return {};
    const DecodedBlock& block = Pin(entry.block);
    return {block.entries.data() + entry.offset,
            static_cast<size_t>(entry.degree)};
  }

  std::span<const graph::NodeId> predecessors(graph::NodeId v) const {
    const int in = graph_->in_degree(v);
    if (in == 0) return {};
    const cgraph_internal::NodeIndexEntry& entry = graph_->index(v);
    const DecodedBlock& block = Pin(entry.block);
    return {block.entries.data() + entry.offset + entry.degree,
            static_cast<size_t>(in)};
  }

 private:
  const DecodedBlock& Pin(uint32_t block) const {
    const uint32_t slot = block % kViewMemoSlots;
    if (pinned_block_[slot] != block || pinned_[slot] == nullptr) {
      pinned_[slot] = graph_->GetBlock(block);
      pinned_block_[slot] = block;
      // Sequential-walk prefetch: two consecutive fetches b-1, b predict
      // b+1 next (block-ordered scans — ToHetGraph-style streaming, batched
      // roots walking id-adjacent frontiers), so hint its page-in now and
      // the madvise overlaps this block's decode. Detection is on fetches,
      // not pins, so the memo-hit fast path stays untouched.
      if (last_fetched_ != UINT32_MAX && block == last_fetched_ + 1) {
        graph_->PrefetchBlock(block + 1);
      }
      last_fetched_ = block;
    }
    return *pinned_[slot];
  }

  const CompressedGraph* graph_;
  mutable std::array<std::shared_ptr<const DecodedBlock>, kViewMemoSlots>
      pinned_;
  mutable std::array<uint32_t, kViewMemoSlots> pinned_block_ = [] {
    std::array<uint32_t, kViewMemoSlots> init;
    init.fill(UINT32_MAX);
    return init;
  }();
  // Most recent block actually fetched (not memo-hit); UINT32_MAX = none.
  mutable uint32_t last_fetched_ = UINT32_MAX;
};

inline GraphView CompressedGraph::MakeView() const { return GraphView(this); }
inline DirectedGraphView CompressedGraph::MakeDirectedView() const {
  return DirectedGraphView(this);
}

}  // namespace hsgf::gstore

namespace hsgf::core {

// Census integration: the extractor binds CompressedGraph directly (O(1)
// degree metadata for LPT scheduling and dmax percentiles), while each
// census worker receives a private GraphView so block pinning stays
// thread-local and the shared BlockCache is the only cross-thread state.
template <>
struct CensusAccess<gstore::CompressedGraph> {
  using View = gstore::GraphView;
  static View MakeView(const gstore::CompressedGraph& graph) {
    return graph.MakeView();
  }
};

// Instantiated once in compressed_graph.cc, like the CSR workers in
// census.cc / extractor.cc.
extern template class BasicCensusWorker<gstore::GraphView>;
extern template class BasicCensusWorker<gstore::DirectedGraphView>;
extern template class BasicExtractor<gstore::CompressedGraph>;

}  // namespace hsgf::core

#endif  // HSGF_GSTORE_COMPRESSED_GRAPH_H_
