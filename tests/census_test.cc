#include "core/census.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/encoding.h"
#include "core/small_graph.h"
#include "graph/builder.h"
#include "util/rng.h"

namespace hsgf::core {
namespace {

using graph::HetGraph;
using graph::Label;
using graph::MakeGraph;
using graph::NodeId;

// Reference census: enumerate ALL edge subsets of the graph (2^m), keep the
// connected ones containing `start` with 1..max_edges edges that satisfy the
// dmax reachability semantics, and count them by canonical encoding.
// Exponential but obviously correct; only usable on tiny graphs.
std::map<Encoding, int64_t> BruteForceCensus(const HetGraph& graph,
                                             NodeId start,
                                             const CensusConfig& config) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId u : graph.neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  const int m = static_cast<int>(edges.size());
  EXPECT_LE(m, 20) << "brute force only works on tiny graphs";
  const int effective_labels =
      graph.num_labels() + (config.mask_start_label ? 1 : 0);

  auto is_blocked = [&](NodeId v) {
    return config.max_degree > 0 && v != start &&
           graph.degree(v) > config.max_degree;
  };

  std::map<Encoding, int64_t> counts;
  for (uint32_t mask = 1; mask < (1u << m); ++mask) {
    if (std::popcount(mask) > config.max_edges) continue;

    // Collect nodes of the edge subset.
    std::vector<NodeId> nodes;
    for (int e = 0; e < m; ++e) {
      if ((mask >> e) & 1u) {
        nodes.push_back(edges[e].first);
        nodes.push_back(edges[e].second);
      }
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    if (!std::binary_search(nodes.begin(), nodes.end(), start)) continue;
    if (static_cast<int>(nodes.size()) > SmallGraph::kMaxNodes) continue;

    auto index_of = [&nodes](NodeId v) {
      return static_cast<int>(std::lower_bound(nodes.begin(), nodes.end(), v) -
                              nodes.begin());
    };

    // Build the subset as a SmallGraph with effective labels.
    std::vector<Label> labels(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      labels[i] = (config.mask_start_label && nodes[i] == start)
                      ? static_cast<Label>(graph.num_labels())
                      : graph.label(nodes[i]);
    }
    SmallGraph subset(labels);
    bool has_blocked_blocked_edge = false;
    for (int e = 0; e < m; ++e) {
      if ((mask >> e) & 1u) {
        subset.AddEdge(index_of(edges[e].first), index_of(edges[e].second));
        if (is_blocked(edges[e].first) && is_blocked(edges[e].second)) {
          has_blocked_blocked_edge = true;
        }
      }
    }
    if (!subset.IsConnected()) continue;
    if (has_blocked_blocked_edge) continue;

    if (config.max_degree > 0) {
      // dmax semantics: the subgraph restricted to non-blocked nodes must be
      // connected (blocked nodes are included as non-expandable leaves).
      uint16_t skeleton_mask = 0;
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (!is_blocked(nodes[i])) skeleton_mask |= 1u << i;
      }
      SmallGraph skeleton = subset.InducedOn(skeleton_mask);
      if (!skeleton.IsConnected()) continue;
    }
    ++counts[EncodeSmallGraph(subset, effective_labels)];
  }
  return counts;
}

// Runs the real census with encodings kept and converts to the same map.
std::map<Encoding, int64_t> RealCensus(const HetGraph& graph, NodeId start,
                                       CensusConfig config) {
  config.keep_encodings = true;
  CensusResult result = RunCensus(graph, start, config);
  std::map<Encoding, int64_t> counts;
  result.counts.ForEach([&](uint64_t hash, int64_t count) {
    auto it = result.encodings.find(hash);
    ASSERT_NE(it, result.encodings.end()) << "hash without encoding";
    counts[it->second] += count;
  });
  return counts;
}

void ExpectCensusMatchesBruteForce(const HetGraph& graph, NodeId start,
                                   const CensusConfig& config) {
  auto expected = BruteForceCensus(graph, start, config);
  auto actual = RealCensus(graph, start, config);
  EXPECT_EQ(expected, actual)
      << "mismatch for start=" << start << " emax=" << config.max_edges
      << " dmax=" << config.max_degree << " mask=" << config.mask_start_label;
}

// --- Closed-form sanity checks -------------------------------------------

TEST(CensusTest, SingleEdge) {
  HetGraph graph = MakeGraph({"x", "y"}, {0, 1}, {{0, 1}});
  CensusConfig config;
  config.max_edges = 3;
  CensusResult result = RunCensus(graph, 0, config);
  EXPECT_EQ(result.total_subgraphs, 1);
  EXPECT_EQ(result.counts.size(), 1u);
}

TEST(CensusTest, StarCountsAreBinomial) {
  // Star with 5 same-label leaves: subgraphs with k edges = C(5, k).
  graph::GraphBuilder builder({"hub", "leaf"});
  NodeId hub = builder.AddNode(0);
  for (int i = 0; i < 5; ++i) {
    NodeId leaf = builder.AddNode(1);
    builder.AddEdge(hub, leaf);
  }
  HetGraph graph = std::move(builder).Build();
  CensusConfig config;
  config.max_edges = 5;
  CensusResult result = RunCensus(graph, hub, config);
  // Each k-edge subgraph around the hub has the same encoding; counts are
  // binomial(5, k) for k = 1..5.
  EXPECT_EQ(result.total_subgraphs, 5 + 10 + 10 + 5 + 1);
  EXPECT_EQ(result.counts.size(), 5u);  // one encoding per size
  std::vector<int64_t> counts;
  result.counts.ForEach(
      [&](uint64_t, int64_t count) { counts.push_back(count); });
  std::sort(counts.begin(), counts.end());
  EXPECT_EQ(counts, (std::vector<int64_t>{1, 5, 5, 10, 10}));
}

TEST(CensusTest, TriangleEnumeratesAllSubsets) {
  HetGraph graph = MakeGraph({"z"}, {0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  CensusConfig config;
  config.max_edges = 3;
  CensusResult result = RunCensus(graph, 0, config);
  // Edge subsets containing node 0: 2 single edges at 0, 3 paths (all pairs
  // of edges are connected and touch 0), 1 triangle. The subset {(1,2)}
  // does not contain node 0.
  EXPECT_EQ(result.total_subgraphs, 2 + 3 + 1);
}

TEST(CensusTest, PathCountsFromEndAndMiddle) {
  // Path a-b-c-d; census from the end vs the middle differs.
  HetGraph graph = MakeGraph({"x"}, {0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}});
  CensusConfig config;
  config.max_edges = 3;
  CensusResult from_end = RunCensus(graph, 0, config);
  CensusResult from_middle = RunCensus(graph, 1, config);
  // From node 0: {01}, {01,12}, {01,12,23} -> 3 subgraphs.
  EXPECT_EQ(from_end.total_subgraphs, 3);
  // From node 1: {01}, {12}, {01,12}, {12,23}, {01,12,23} -> 5.
  EXPECT_EQ(from_middle.total_subgraphs, 5);
}

TEST(CensusTest, MaskedStartLabelChangesEncodingsNotTotals) {
  HetGraph graph = MakeGraph({"x", "y"}, {0, 1, 0, 1},
                             {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  CensusConfig plain;
  plain.max_edges = 4;
  CensusConfig masked = plain;
  masked.mask_start_label = true;
  CensusResult plain_result = RunCensus(graph, 0, plain);
  CensusResult masked_result = RunCensus(graph, 0, masked);
  EXPECT_EQ(plain_result.total_subgraphs, masked_result.total_subgraphs);
}

TEST(CensusTest, UnmixedHashMergesTriangleAndPath) {
  // Documents why mix_contributions defaults to true: with the paper's raw
  // linear sum (Eq. 5), a monochrome triangle and a monochrome 3-edge star
  // into distinct nodes produce the same hash because the hash only sees
  // the multiset of edge label pairs.
  HetGraph graph = MakeGraph(
      {"z"}, {0, 0, 0, 0, 0},
      {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {0, 4}, {3, 4}});
  CensusConfig mixed;
  mixed.max_edges = 3;
  mixed.mix_contributions = true;
  CensusConfig unmixed = mixed;
  unmixed.mix_contributions = false;
  CensusResult mixed_result = RunCensus(graph, 0, mixed);
  CensusResult unmixed_result = RunCensus(graph, 0, unmixed);
  EXPECT_EQ(mixed_result.total_subgraphs, unmixed_result.total_subgraphs);
  // The unmixed hash cannot tell a triangle from a 3-edge path/star: fewer
  // distinct keys than the structurally-correct census.
  EXPECT_LT(unmixed_result.counts.size(), mixed_result.counts.size());
}

TEST(CensusTest, GroupByLabelIsPureOptimization) {
  util::Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    int n = 5 + static_cast<int>(rng.UniformInt(4));
    std::vector<Label> labels(n);
    for (int v = 0; v < n; ++v) {
      labels[v] = static_cast<Label>(rng.UniformInt(3));
    }
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.4)) edges.emplace_back(u, v);
      }
    }
    HetGraph graph = MakeGraph({"a", "b", "c"}, labels, edges);
    CensusConfig grouped;
    grouped.max_edges = 4;
    grouped.group_by_label = true;
    CensusConfig ungrouped = grouped;
    ungrouped.group_by_label = false;
    auto a = RealCensus(graph, 0, grouped);
    auto b = RealCensus(graph, 0, ungrouped);
    EXPECT_EQ(a, b) << "trial " << trial;
  }
}

// --- Property sweep against brute force ----------------------------------

struct SweepParam {
  int num_nodes;
  int num_labels;
  double density;
  int max_edges;
  bool mask;
  int dmax;  // 0 = unlimited
};

class CensusSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CensusSweepTest, MatchesBruteForceOnRandomGraphs) {
  const SweepParam param = GetParam();
  util::Rng rng(1234567 + param.num_nodes * 1000 + param.max_edges);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Label> labels(param.num_nodes);
    for (int v = 0; v < param.num_nodes; ++v) {
      labels[v] = static_cast<Label>(rng.UniformInt(param.num_labels));
    }
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int u = 0; u < param.num_nodes; ++u) {
      for (int v = u + 1; v < param.num_nodes; ++v) {
        if (rng.Bernoulli(param.density)) edges.emplace_back(u, v);
      }
    }
    if (edges.empty() || edges.size() > 16) continue;
    std::vector<std::string> names;
    for (int l = 0; l < param.num_labels; ++l) {
      names.push_back(std::string(1, static_cast<char>('a' + l)));
    }
    HetGraph graph = MakeGraph(names, labels, edges);

    CensusConfig config;
    config.max_edges = param.max_edges;
    config.mask_start_label = param.mask;
    config.max_degree = param.dmax;
    NodeId start = static_cast<NodeId>(rng.UniformInt(param.num_nodes));
    if (graph.degree(start) == 0) continue;
    ExpectCensusMatchesBruteForce(graph, start, config);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CensusSweepTest,
    ::testing::Values(
        SweepParam{4, 1, 0.6, 3, false, 0}, SweepParam{5, 2, 0.5, 3, false, 0},
        SweepParam{5, 2, 0.5, 4, true, 0}, SweepParam{6, 2, 0.35, 4, false, 0},
        SweepParam{6, 3, 0.35, 5, false, 0}, SweepParam{6, 3, 0.35, 5, true, 0},
        SweepParam{7, 2, 0.25, 5, false, 0}, SweepParam{7, 3, 0.25, 6, false, 0},
        SweepParam{6, 2, 0.4, 4, false, 2}, SweepParam{6, 2, 0.4, 4, false, 3},
        SweepParam{7, 3, 0.3, 5, false, 3}, SweepParam{7, 3, 0.3, 5, true, 2},
        SweepParam{5, 1, 0.7, 4, false, 2}, SweepParam{8, 4, 0.2, 5, false, 0},
        SweepParam{8, 2, 0.2, 6, false, 3}));

TEST(CensusTest, MixFinalizerFixesZero) {
  // Run() starts every census from the start node's contribution before
  // its first edge, Mix(0), as the empty-subgraph hash, which the census
  // treats as 0: the finalizer must fix zero.
  EXPECT_EQ(census_internal::Mix(0), 0u);
}

TEST(CensusTest, SubgraphBudgetTruncatesAndFlags) {
  // Star with 12 leaves: without a budget the census counts sum_k C(12,k)
  // subgraphs; a small budget must stop early and flag truncation.
  graph::GraphBuilder builder({"hub", "leaf"});
  NodeId hub = builder.AddNode(0);
  for (int i = 0; i < 12; ++i) builder.AddEdge(hub, builder.AddNode(1));
  HetGraph graph = std::move(builder).Build();

  CensusConfig unlimited;
  unlimited.max_edges = 5;
  CensusResult full = RunCensus(graph, hub, unlimited);
  EXPECT_FALSE(full.truncated);
  int64_t expected = 12 + 66 + 220 + 495 + 792;  // C(12,1..5)
  EXPECT_EQ(full.total_subgraphs, expected);

  CensusConfig budgeted = unlimited;
  budgeted.max_subgraphs = 100;
  CensusResult capped = RunCensus(graph, hub, budgeted);
  EXPECT_TRUE(capped.truncated);
  EXPECT_GE(capped.total_subgraphs, 100);
  EXPECT_LT(capped.total_subgraphs, expected);
}

TEST(CensusTest, BudgetLargerThanCensusIsNoop) {
  HetGraph graph = MakeGraph({"z"}, {0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  CensusConfig config;
  config.max_edges = 3;
  config.max_subgraphs = 1000000;
  CensusResult result = RunCensus(graph, 0, config);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.total_subgraphs, 6);
}

TEST(CensusTest, HashAndEncodingKeysAgreeOnDenserGraphs) {
  // On larger random graphs (no brute force), verify that the number of
  // distinct hashes equals the number of distinct encodings, i.e. the mixed
  // rolling hash is injective on everything the census produced.
  util::Rng rng(2024);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 40;
    std::vector<Label> labels(n);
    for (int v = 0; v < n; ++v) {
      labels[v] = static_cast<Label>(rng.UniformInt(4));
    }
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.12)) edges.emplace_back(u, v);
      }
    }
    HetGraph graph = MakeGraph({"a", "b", "c", "d"}, labels, edges);
    CensusConfig config;
    config.max_edges = 4;
    config.keep_encodings = true;
    CensusResult result = RunCensus(graph, 0, config);
    std::set<Encoding> encodings;
    for (const auto& [hash, encoding] : result.encodings) {
      encodings.insert(encoding);
    }
    EXPECT_EQ(encodings.size(), result.encodings.size());
    EXPECT_EQ(result.counts.size(), result.encodings.size());
  }
}

}  // namespace
}  // namespace hsgf::core
