#ifndef HSGF_CORE_DIRECTED_CENSUS_H_
#define HSGF_CORE_DIRECTED_CENSUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/census.h"
#include "core/encoding.h"
#include "graph/digraph.h"

namespace hsgf::core {

// Directed heterogeneous subgraph features — the extension the paper
// names as future work ("we suspect that for denser directed networks,
// directed subgraph features may turn out to be more performant", §5).
//
// The characteristic sequence generalizes naturally: each node's block is
//   [ label, in_1 .. in_L, out_1 .. out_L ]
// where in_l / out_l count in-/out-neighbours with label l *inside the
// subgraph*; blocks are sorted in descending lexicographic order exactly as
// in the undirected encoding. The rolling hash uses two independent base
// families (in/out), so antiparallel structure is distinguished.
//
// The enumerator is the undirected one: BasicCensusWorker (census.h) takes
// its orientation from the graph type, so this header holds only the
// directed encoding helpers, the one-shot RunDirectedCensus and the worker
// aliases the directed call sites use.

// A tiny labelled digraph used for encoding, tests and brute-force
// verification (mirrors SmallGraph).
class SmallDiGraph {
 public:
  static constexpr int kMaxNodes = 16;

  SmallDiGraph() = default;
  explicit SmallDiGraph(std::vector<graph::Label> labels);

  int num_nodes() const { return static_cast<int>(labels_.size()); }
  int num_arcs() const;
  graph::Label label(int v) const { return labels_[v]; }

  bool HasArc(int u, int v) const { return (out_[u] >> v) & 1u; }
  void AddArc(int u, int v);

  uint16_t OutMask(int v) const { return out_[v]; }
  uint16_t InMask(int v) const { return in_[v]; }

  // Weak connectivity (directions ignored).
  bool IsWeaklyConnected() const;

  std::vector<std::pair<int, int>> Arcs() const;
  std::string ToString() const;

 private:
  std::vector<graph::Label> labels_;
  uint16_t out_[kMaxNodes] = {};
  uint16_t in_[kMaxNodes] = {};
};

// Canonical directed encoding over a label universe of size num_labels.
Encoding EncodeSmallDiGraph(const SmallDiGraph& graph, int num_labels);

// Human-readable form: blocks "<label>|in:<counts>|out:<counts>".
std::string DirectedEncodingToString(
    const Encoding& encoding, int num_labels,
    const std::vector<std::string>& label_names = {});

// The directed census is BasicCensusWorker over a graph that models the
// directed census concept (DirectedCensusGraph, census.h): num_nodes(),
// num_labels(), label(v), total_degree(v), successors(v), predecessors(v),
// both adjacency ranges sorted by (label, id). It enumerates weakly
// connected arc subsets with 1..max_edges arcs containing the start node,
// applies max_degree to the total degree, and counts arcs one at a time
// (group_by_label does not apply). These aliases name it.
template <typename GraphT>
using BasicDirectedCensusWorker = BasicCensusWorker<GraphT>;

// The directed worker every existing call site uses: the in-RAM digraph.
using DirectedCensusWorker = BasicCensusWorker<graph::DirectedHetGraph>;

CensusResult RunDirectedCensus(const graph::DirectedHetGraph& graph,
                               graph::NodeId start,
                               const CensusConfig& config);

// The digraph instantiation lives in directed_census.cc (see census.h).
extern template class BasicCensusWorker<graph::DirectedHetGraph>;

}  // namespace hsgf::core

#endif  // HSGF_CORE_DIRECTED_CENSUS_H_
