#ifndef HSGF_STREAM_DIRTY_TRACKER_H_
#define HSGF_STREAM_DIRTY_TRACKER_H_

#include <span>
#include <vector>

#include "graph/digraph.h"
#include "graph/het_graph.h"
#include "stream/dynamic_graph.h"

namespace hsgf::stream {

// Dirty-set computation: given the endpoints touched by a delta batch,
// returns every root whose rooted census can have changed.
//
// Soundness argument. An edge (u, v) appears in some subgraph rooted at r
// only if the enumeration can reach one of its endpoints, i.e. there is a
// path r -> x (x ∈ {u, v}) of at most max_edges - 1 edges all of whose
// *intermediate* nodes are expandable under the dmax rule. The endpoint
// itself may be blocked (blocked nodes are still added to subgraphs, just
// never expanded through), and the root is exempt from dmax. Running a BFS
// *backwards* from the touched endpoints therefore covers all such roots:
// sources start at depth 0 and always expand (they play the "endpoint may be
// blocked" role); any other node x is expanded only if it is not blocked
// (degree(x) <= max_degree when max_degree > 0), because as an intermediate
// node on the path it must be expandable; every node visited within depth
// max_edges - 1 is a candidate root (the root's own degree never matters —
// the start node is exempt from dmax).
//
// Callers must run this twice per batch — once on the pre-mutation graph
// with pre-mutation degrees, once on the post-mutation graph — and union the
// results. A single pass on either graph is unsound under dmax: a removal
// can lower a hub's degree below the threshold, unblocking paths that exist
// only in the post graph, while the pre graph is the one in which the old
// (now stale) features were computed.
//
// Externally synchronized: these functions read the graph without locking;
// StreamEngine calls them under its writer lock (the graph must not mutate
// during the BFS).
std::vector<graph::NodeId> CollectDirtyRoots(const DynamicGraph& graph,
                                             std::span<const graph::NodeId> sources,
                                             int max_edges, int max_degree);

// Same rule over a materialized CSR, e.g. the graph as it was before a
// batch, which StreamEngine keeps to find the roots a dmax crossing reaches.
std::vector<graph::NodeId> CollectDirtyRoots(
    const graph::HetGraph& graph, std::span<const graph::NodeId> sources,
    int max_edges, int max_degree);

// Same rule over a directed graph: the directed census traverses arcs in
// both orientations (successors and predecessors), so the reverse BFS does
// too, and blocking uses total_degree as in DirectedCensusWorker.
std::vector<graph::NodeId> CollectDirtyRootsDirected(
    const graph::DirectedHetGraph& graph,
    std::span<const graph::NodeId> sources, int max_edges, int max_degree);

}  // namespace hsgf::stream

#endif  // HSGF_STREAM_DIRTY_TRACKER_H_
