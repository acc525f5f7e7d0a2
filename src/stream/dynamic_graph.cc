#include "stream/dynamic_graph.h"

#include <algorithm>
#include <utility>

#include "graph/builder.h"
#include "gstore/compressed_graph.h"
#include "util/check.h"

namespace hsgf::stream {

namespace {

bool SortedContains(const std::vector<graph::NodeId>& list, graph::NodeId v) {
  return std::binary_search(list.begin(), list.end(), v);
}

void SortedInsert(std::vector<graph::NodeId>* list, graph::NodeId v) {
  list->insert(std::lower_bound(list->begin(), list->end(), v), v);
}

// Returns true iff v was present (and removed).
bool SortedErase(std::vector<graph::NodeId>* list, graph::NodeId v) {
  auto it = std::lower_bound(list->begin(), list->end(), v);
  if (it == list->end() || *it != v) return false;
  list->erase(it);
  return true;
}

}  // namespace

DynamicGraph::DynamicGraph(graph::HetGraph base)
    : base_(std::make_shared<const graph::HetGraph>(std::move(base))) {
  num_edges_ = static_cast<size_t>(base_->num_edges());
}

DynamicGraph::DynamicGraph(const gstore::CompressedGraph& base)
    : DynamicGraph(base.ToHetGraph()) {}

bool DynamicGraph::Apply(const DeltaOp& op, std::string* error) {
  switch (op.kind) {
    case DeltaKind::kAddNode:
      if (op.label >= base_->num_labels()) {
        if (error != nullptr) {
          *error = "label " + std::to_string(op.label) +
                   " out of range (graph has " +
                   std::to_string(base_->num_labels()) + " labels)";
        }
        return false;
      }
      AddNode(op.label);
      return true;
    case DeltaKind::kAddEdge:
      return AddEdge(op.u, op.v, error);
    case DeltaKind::kRemoveEdge:
      return RemoveEdge(op.u, op.v, error);
  }
  if (error != nullptr) *error = "unknown delta kind";
  return false;
}

graph::NodeId DynamicGraph::AddNode(graph::Label label) {
  HSGF_CHECK_LT(label, base_->num_labels());
  const graph::NodeId id = num_nodes();
  added_labels_.push_back(label);
  materialized_fresh_ = false;
  return id;
}

bool DynamicGraph::AddEdge(graph::NodeId u, graph::NodeId v,
                           std::string* error) {
  if (!InRange(u) || !InRange(v)) {
    if (error != nullptr) {
      *error = "edge (" + std::to_string(u) + "," + std::to_string(v) +
               ") references a node outside [0," +
               std::to_string(num_nodes()) + ")";
    }
    return false;
  }
  if (u == v) {
    if (error != nullptr) {
      *error = "self loop on node " + std::to_string(u);
    }
    return false;
  }
  if (HasEdge(u, v)) {
    if (error != nullptr) {
      *error = "edge (" + std::to_string(u) + "," + std::to_string(v) +
               ") already present";
    }
    return false;
  }
  if (BaseHasEdge(u, v)) {
    // Re-adding a removed base edge: cancel the removal.
    Overlay& ou = OverlayOf(u);
    Overlay& ov = OverlayOf(v);
    HSGF_CHECK(SortedErase(&ou.removed, v));
    HSGF_CHECK(SortedErase(&ov.removed, u));
    overlay_entries_ -= 2;
  } else {
    SortedInsert(&OverlayOf(u).added, v);
    SortedInsert(&OverlayOf(v).added, u);
    overlay_entries_ += 2;
  }
  ++num_edges_;
  materialized_fresh_ = false;
  return true;
}

bool DynamicGraph::RemoveEdge(graph::NodeId u, graph::NodeId v,
                              std::string* error) {
  if (!InRange(u) || !InRange(v) || u == v || !HasEdge(u, v)) {
    if (error != nullptr) {
      *error = "edge (" + std::to_string(u) + "," + std::to_string(v) +
               ") not present";
    }
    return false;
  }
  if (BaseHasEdge(u, v)) {
    SortedInsert(&OverlayOf(u).removed, v);
    SortedInsert(&OverlayOf(v).removed, u);
    overlay_entries_ += 2;
  } else {
    // Removing an overlay-added edge: cancel the addition.
    Overlay& ou = OverlayOf(u);
    Overlay& ov = OverlayOf(v);
    HSGF_CHECK(SortedErase(&ou.added, v));
    HSGF_CHECK(SortedErase(&ov.added, u));
    overlay_entries_ -= 2;
  }
  --num_edges_;
  materialized_fresh_ = false;
  return true;
}

graph::Label DynamicGraph::label(graph::NodeId v) const {
  HSGF_DCHECK(InRange(v));
  return v < base_->num_nodes() ? base_->label(v)
                                : added_labels_[v - base_->num_nodes()];
}

int DynamicGraph::degree(graph::NodeId v) const {
  HSGF_DCHECK(InRange(v));
  int d = v < base_->num_nodes() ? base_->degree(v) : 0;
  if (const Overlay* overlay = FindOverlay(v)) {
    d += static_cast<int>(overlay->added.size());
    d -= static_cast<int>(overlay->removed.size());
  }
  return d;
}

bool DynamicGraph::HasEdge(graph::NodeId u, graph::NodeId v) const {
  HSGF_DCHECK(InRange(u));
  HSGF_DCHECK(InRange(v));
  if (const Overlay* overlay = FindOverlay(u)) {
    if (SortedContains(overlay->removed, v)) return false;
    if (SortedContains(overlay->added, v)) return true;
  }
  return BaseHasEdge(u, v);
}

void DynamicGraph::AppendNeighbors(graph::NodeId v,
                                   std::vector<graph::NodeId>* out) const {
  HSGF_DCHECK(InRange(v));
  const Overlay* overlay = FindOverlay(v);
  if (v < base_->num_nodes()) {
    for (const graph::NodeId w : base_->neighbors(v)) {
      if (overlay != nullptr && SortedContains(overlay->removed, w)) continue;
      out->push_back(w);
    }
  }
  if (overlay != nullptr) {
    out->insert(out->end(), overlay->added.begin(), overlay->added.end());
  }
}

DynamicGraph::Overlay& DynamicGraph::OverlayOf(graph::NodeId v) {
  if (static_cast<size_t>(v) >= overlays_.size()) {
    overlays_.resize(static_cast<size_t>(v) + 1);
  }
  return overlays_[v];
}

const DynamicGraph::Overlay* DynamicGraph::FindOverlay(
    graph::NodeId v) const {
  if (static_cast<size_t>(v) >= overlays_.size()) return nullptr;
  const Overlay& overlay = overlays_[v];
  if (overlay.added.empty() && overlay.removed.empty()) return nullptr;
  return &overlay;
}

const graph::HetGraph& DynamicGraph::Materialize() {
  if (!materialized_fresh_) {
    if (overlay_entries_ == 0 && added_labels_.empty()) {
      materialized_.reset();
    } else {
      Rebuild();
    }
    materialized_fresh_ = true;
  }
  return materialized_ != nullptr ? *materialized_ : *base_;
}

const std::shared_ptr<const graph::HetGraph>& DynamicGraph::SharedCsr()
    const {
  HSGF_CHECK(materialized_fresh_)
      << "DynamicGraph::csr() called with pending mutations; call "
         "Materialize() first";
  return materialized_ != nullptr ? materialized_ : base_;
}

void DynamicGraph::Compact() {
  Materialize();
  if (materialized_ == nullptr) return;  // nothing to fold
  base_ = std::move(materialized_);
  materialized_.reset();
  added_labels_.clear();
  overlays_.clear();
  overlay_entries_ = 0;
}

void DynamicGraph::Rebuild() {
  graph::GraphBuilder builder(base_->label_names());
  const graph::NodeId base_nodes = base_->num_nodes();
  for (graph::NodeId v = 0; v < base_nodes; ++v) {
    builder.AddNode(base_->label(v));
  }
  for (const graph::Label label : added_labels_) {
    builder.AddNode(label);
  }
  // Base edges minus removals (each undirected edge emitted once, u < w).
  for (graph::NodeId v = 0; v < base_nodes; ++v) {
    const Overlay* overlay = FindOverlay(v);
    for (const graph::NodeId w : base_->neighbors(v)) {
      if (w <= v) continue;
      if (overlay != nullptr && SortedContains(overlay->removed, w)) continue;
      builder.AddEdge(v, w);
    }
  }
  // Overlay additions (again emitted once per undirected edge).
  const graph::NodeId total = num_nodes();
  for (graph::NodeId v = 0; v < total; ++v) {
    const Overlay* overlay = FindOverlay(v);
    if (overlay == nullptr) continue;
    for (const graph::NodeId w : overlay->added) {
      if (w > v) builder.AddEdge(v, w);
    }
  }
  materialized_ =
      std::make_shared<const graph::HetGraph>(std::move(builder).Build());
  HSGF_CHECK_EQ(static_cast<size_t>(materialized_->num_edges()), num_edges_);
}

}  // namespace hsgf::stream
