#include "stream/dirty_tracker.h"

#include <algorithm>

#include "core/census.h"
#include "util/check.h"

namespace hsgf::stream {

namespace {

// Shared BFS driver. `append_neighbors(v, &out)` enumerates the nodes
// adjacent to v (in whatever orientation the census traverses); blocking is
// the census's own dmax rule, core::OverDmax, on `graph`.
template <typename GraphT, typename AppendNeighbors>
std::vector<graph::NodeId> ReverseBfs(const GraphT& graph,
                                      std::span<const graph::NodeId> sources,
                                      int max_edges, int max_degree,
                                      AppendNeighbors&& append_neighbors) {
  std::vector<graph::NodeId> dirty;
  if (max_edges <= 0) return dirty;

  const graph::NodeId num_nodes = graph.num_nodes();
  std::vector<char> visited(static_cast<size_t>(num_nodes), 0);
  std::vector<graph::NodeId> frontier;
  for (const graph::NodeId s : sources) {
    HSGF_DCHECK(s >= 0 && s < num_nodes);
    if (visited[s]) continue;
    visited[s] = 1;
    dirty.push_back(s);
    frontier.push_back(s);
  }

  // Nodes at depth d are roots with a path of d edges to a touched endpoint;
  // they can reach it iff d <= max_edges - 1.
  std::vector<graph::NodeId> next;
  std::vector<graph::NodeId> scratch;
  for (int depth = 0; depth + 1 <= max_edges - 1 && !frontier.empty();
       ++depth) {
    next.clear();
    for (const graph::NodeId x : frontier) {
      // Sources always expand (the touched endpoint of an edge may itself be
      // blocked yet still appear in subgraphs); interior nodes expand only
      // when not blocked, because a path through them requires expansion.
      const bool is_source = depth == 0;
      if (!is_source && core::OverDmax(graph, x, max_degree)) continue;
      scratch.clear();
      append_neighbors(x, &scratch);
      for (const graph::NodeId w : scratch) {
        if (visited[w]) continue;
        visited[w] = 1;
        dirty.push_back(w);
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

}  // namespace

std::vector<graph::NodeId> CollectDirtyRoots(
    const DynamicGraph& graph, std::span<const graph::NodeId> sources,
    int max_edges, int max_degree) {
  return ReverseBfs(
      graph, sources, max_edges, max_degree,
      [&graph](graph::NodeId v, std::vector<graph::NodeId>* out) {
        graph.AppendNeighbors(v, out);
      });
}

std::vector<graph::NodeId> CollectDirtyRoots(
    const graph::HetGraph& graph, std::span<const graph::NodeId> sources,
    int max_edges, int max_degree) {
  return ReverseBfs(
      graph, sources, max_edges, max_degree,
      [&graph](graph::NodeId v, std::vector<graph::NodeId>* out) {
        const auto neighbors = graph.neighbors(v);
        out->insert(out->end(), neighbors.begin(), neighbors.end());
      });
}

std::vector<graph::NodeId> CollectDirtyRootsDirected(
    const graph::DirectedHetGraph& graph,
    std::span<const graph::NodeId> sources, int max_edges, int max_degree) {
  return ReverseBfs(
      graph, sources, max_edges, max_degree,
      [&graph](graph::NodeId v, std::vector<graph::NodeId>* out) {
        for (const graph::NodeId w : graph.successors(v)) out->push_back(w);
        for (const graph::NodeId w : graph.predecessors(v)) out->push_back(w);
      });
}

}  // namespace hsgf::stream
