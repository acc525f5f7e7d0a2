#include "core/census.h"

#include <string>

namespace hsgf::core {

CensusMetrics CensusMetrics::Register(util::MetricsRegistry& registry,
                                      int max_edges) {
  CensusMetrics metrics;
  metrics.registry = &registry;
  metrics.nodes = registry.Counter("census.nodes");
  metrics.subgraphs_total = registry.Counter("census.subgraphs_total");
  metrics.subgraphs_by_edges.reserve(static_cast<size_t>(max_edges));
  for (int k = 1; k <= max_edges; ++k) {
    metrics.subgraphs_by_edges.push_back(
        registry.Counter("census.subgraphs.edges_" + std::to_string(k)));
  }
  metrics.distinct_encodings = registry.Counter("census.distinct_encodings");
  metrics.label_group_saved = registry.Counter("census.label_group_saved");
  metrics.leaf_groups = registry.Counter("census.leaf_groups");
  metrics.leaf_group_fallbacks =
      registry.Counter("census.leaf_group_fallbacks");
  metrics.dmax_blocked = registry.Counter("census.dmax_blocked");
  metrics.encoding_materializations =
      registry.Counter("census.encoding_materializations");
  metrics.budget_truncated_nodes =
      registry.Counter("census.budget_truncated_nodes");
  metrics.stopped_nodes = registry.Counter("census.stopped_nodes");
  return metrics;
}

// Home of the CSR worker's code: every other translation unit links against
// this instantiation (see the extern template declaration in census.h).
template class BasicCensusWorker<graph::HetGraph>;

CensusResult RunCensus(const graph::HetGraph& graph, graph::NodeId start,
                       const CensusConfig& config) {
  CensusWorker worker(graph, config);
  CensusResult result;
  worker.Run(start, result);
  return result;
}

}  // namespace hsgf::core
