#ifndef HSGF_STREAM_DYNAMIC_GRAPH_H_
#define HSGF_STREAM_DYNAMIC_GRAPH_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "graph/het_graph.h"
#include "stream/delta_log.h"

namespace hsgf::gstore {
class CompressedGraph;
}  // namespace hsgf::gstore

namespace hsgf::stream {

// Mutable overlay over an immutable CSR HetGraph. Deltas (AddNode / AddEdge /
// RemoveEdge) are absorbed into small per-node side structures without
// rebuilding the CSR; readers that need the census machinery (which walks
// CSR adjacency) call Materialize() to get an up-to-date HetGraph view, and
// Compact() periodically folds the overlay back into a fresh base CSR so the
// overlay never grows without bound.
//
// Overlay representation, per node: a sorted `added` list (edges absent from
// the base) and a sorted `removed` list (base edges deleted). Both directions
// of an undirected edge are maintained, and the two lists are disjoint by
// construction: adding a previously removed base edge erases the removal
// instead of recording an addition, and vice versa. Nodes created after the
// base snapshot live in `added_labels_` with ids following the base's.
//
// Thread-compatible, externally synchronized: DynamicGraph has no internal
// locking by design — StreamEngine owns one behind its SharedMutex (writes
// under the writer lock, Materialize()d reads under the reader lock), and
// the capability annotations there are what make that discipline checkable.
class DynamicGraph {
 public:
  explicit DynamicGraph(graph::HetGraph base);

  // Hydrates the base CSR from an out-of-core container (one block-
  // sequential pass over the blob), so the streaming overlay composes on
  // top of a graph that lived on disk. The census machinery walks the
  // materialized CSR afterwards — see DESIGN.md §Out-of-core graph store
  // for why streaming currently implies materialization.
  explicit DynamicGraph(const gstore::CompressedGraph& base);

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  // --- Mutation -----------------------------------------------------------

  // Applies one delta; on rejection returns false and explains in *error.
  // Rejections: out-of-range node / label, self loop, duplicate AddEdge,
  // RemoveEdge of a missing edge.
  bool Apply(const DeltaOp& op, std::string* error = nullptr);

  graph::NodeId AddNode(graph::Label label);
  bool AddEdge(graph::NodeId u, graph::NodeId v, std::string* error = nullptr);
  bool RemoveEdge(graph::NodeId u, graph::NodeId v,
                  std::string* error = nullptr);

  // Rebuilds (or reuses a cached) CSR equal to base + overlay. Non-const:
  // callers serialize materialization themselves (StreamEngine calls it only
  // under its exclusive lock). With an empty overlay this is the base itself.
  //
  // Lifetime: the CSR is owned through a shared_ptr that the next
  // Materialize() after a mutation replaces, so the reference returned here
  // — and those from csr() and base() — dangles once that happens, and base()'s
  // may also dangle after Compact(). A caller that needs the graph longer keeps
  // a copy of SharedCsr().
  const graph::HetGraph& Materialize();

  // The last materialized CSR. HSGF_CHECKs that no mutation happened since
  // the last Materialize(), so read paths can never see a stale view.
  const graph::HetGraph& csr() const { return *SharedCsr(); }
  // The same CSR, shared: a copy of the pointer outlives later mutations,
  // Materialize() and Compact(), so a caller can keep the graph as it was
  // before a batch.
  const std::shared_ptr<const graph::HetGraph>& SharedCsr() const;

  // Folds the overlay into the base CSR and clears it. Invalidates the
  // reference base() returned (see Materialize()).
  void Compact();

  // --- Read access (base + overlay, no materialization needed) ------------

  graph::NodeId num_nodes() const {
    return base_->num_nodes() +
           static_cast<graph::NodeId>(added_labels_.size());
  }
  size_t num_edges() const { return num_edges_; }
  int num_labels() const { return base_->num_labels(); }
  const std::vector<std::string>& label_names() const {
    return base_->label_names();
  }
  graph::Label label(graph::NodeId v) const;
  int degree(graph::NodeId v) const;
  bool HasEdge(graph::NodeId u, graph::NodeId v) const;
  // Appends v's current neighbours (base minus removed, plus added) to *out.
  void AppendNeighbors(graph::NodeId v, std::vector<graph::NodeId>* out) const;

  // Total added+removed entries across all nodes (each undirected edge
  // counts twice); the compaction trigger.
  size_t overlay_entries() const { return overlay_entries_; }
  const graph::HetGraph& base() const { return *base_; }

 private:
  struct Overlay {
    std::vector<graph::NodeId> added;    // sorted; not edges of base
    std::vector<graph::NodeId> removed;  // sorted; subset of base edges
  };

  bool InRange(graph::NodeId v) const { return v >= 0 && v < num_nodes(); }
  bool BaseHasEdge(graph::NodeId u, graph::NodeId v) const {
    return u < base_->num_nodes() && v < base_->num_nodes() &&
           base_->HasEdge(u, v);
  }
  Overlay& OverlayOf(graph::NodeId v);
  const Overlay* FindOverlay(graph::NodeId v) const;
  void Rebuild();

  std::shared_ptr<const graph::HetGraph> base_;
  std::vector<graph::Label> added_labels_;  // labels of post-base nodes
  std::vector<Overlay> overlays_;           // indexed by NodeId; grown lazily
  size_t num_edges_ = 0;
  size_t overlay_entries_ = 0;

  // Null while the base itself is the materialized view.
  std::shared_ptr<const graph::HetGraph> materialized_;
  bool materialized_fresh_ = true;  // base_ itself is fresh at construction
};

}  // namespace hsgf::stream

#endif  // HSGF_STREAM_DYNAMIC_GRAPH_H_
