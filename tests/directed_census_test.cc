#include "core/directed_census.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <vector>

#include "graph/digraph.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stop_token.h"

namespace hsgf::core {
namespace {

using graph::DiGraphBuilder;
using graph::DirectedHetGraph;
using graph::Label;
using graph::NodeId;

DirectedHetGraph MakeDiGraph(std::vector<std::string> label_names,
                             const std::vector<Label>& labels,
                             const std::vector<std::pair<NodeId, NodeId>>& arcs) {
  DiGraphBuilder builder(std::move(label_names));
  for (Label l : labels) builder.AddNode(l);
  for (const auto& [u, v] : arcs) builder.AddArc(u, v);
  return std::move(builder).Build();
}

// Brute-force reference: all arc subsets, weak connectivity, containment of
// the start node, dmax semantics, encoded with EncodeSmallDiGraph.
std::map<Encoding, int64_t> BruteForce(const DirectedHetGraph& graph,
                                       NodeId start,
                                       const CensusConfig& config) {
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId u : graph.successors(v)) arcs.emplace_back(v, u);
  }
  const int m = static_cast<int>(arcs.size());
  EXPECT_LE(m, 18);
  const int effective_labels =
      graph.num_labels() + (config.mask_start_label ? 1 : 0);
  auto is_blocked = [&](NodeId v) {
    return config.max_degree > 0 && v != start &&
           graph.total_degree(v) > config.max_degree;
  };

  std::map<Encoding, int64_t> counts;
  for (uint32_t mask = 1; mask < (1u << m); ++mask) {
    if (std::popcount(mask) > config.max_edges) continue;
    std::vector<NodeId> nodes;
    for (int a = 0; a < m; ++a) {
      if ((mask >> a) & 1u) {
        nodes.push_back(arcs[a].first);
        nodes.push_back(arcs[a].second);
      }
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    if (!std::binary_search(nodes.begin(), nodes.end(), start)) continue;
    auto index_of = [&nodes](NodeId v) {
      return static_cast<int>(std::lower_bound(nodes.begin(), nodes.end(), v) -
                              nodes.begin());
    };
    std::vector<Label> labels(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      labels[i] = (config.mask_start_label && nodes[i] == start)
                      ? static_cast<Label>(graph.num_labels())
                      : graph.label(nodes[i]);
    }
    SmallDiGraph subset(labels);
    bool blocked_blocked = false;
    for (int a = 0; a < m; ++a) {
      if ((mask >> a) & 1u) {
        subset.AddArc(index_of(arcs[a].first), index_of(arcs[a].second));
        if (is_blocked(arcs[a].first) && is_blocked(arcs[a].second)) {
          blocked_blocked = true;
        }
      }
    }
    if (!subset.IsWeaklyConnected() || blocked_blocked) continue;
    if (config.max_degree > 0) {
      // The non-blocked skeleton must be weakly connected.
      std::vector<int> keep;
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (!is_blocked(nodes[i])) keep.push_back(static_cast<int>(i));
      }
      std::vector<Label> skeleton_labels;
      for (int i : keep) skeleton_labels.push_back(labels[i]);
      SmallDiGraph skeleton(skeleton_labels);
      for (size_t a = 0; a < keep.size(); ++a) {
        for (size_t b = 0; b < keep.size(); ++b) {
          if (a != b && subset.HasArc(keep[a], keep[b])) {
            skeleton.AddArc(static_cast<int>(a), static_cast<int>(b));
          }
        }
      }
      if (!skeleton.IsWeaklyConnected()) continue;
    }
    ++counts[EncodeSmallDiGraph(subset, effective_labels)];
  }
  return counts;
}

std::map<Encoding, int64_t> Real(const DirectedHetGraph& graph, NodeId start,
                                 CensusConfig config) {
  config.keep_encodings = true;
  CensusResult result = RunDirectedCensus(graph, start, config);
  std::map<Encoding, int64_t> counts;
  result.counts.ForEach([&](uint64_t hash, int64_t count) {
    auto it = result.encodings.find(hash);
    ASSERT_NE(it, result.encodings.end());
    counts[it->second] += count;
  });
  return counts;
}

TEST(DirectedCensusTest, SingleArcBothDirections) {
  DirectedHetGraph graph = MakeDiGraph({"x", "y"}, {0, 1}, {{0, 1}, {1, 0}});
  CensusConfig config;
  config.max_edges = 2;
  CensusResult from_zero = RunDirectedCensus(graph, 0, config);
  // Subsets containing node 0: {0->1}, {1->0}, {both} -> 3 subgraphs, and
  // the two single arcs have DIFFERENT encodings (direction matters).
  EXPECT_EQ(from_zero.total_subgraphs, 3);
  EXPECT_EQ(from_zero.counts.size(), 3u);
}

TEST(DirectedCensusTest, DirectionDistinguishesEncodings) {
  // x -> y vs y -> x around the same start node.
  SmallDiGraph out({0, 1});
  out.AddArc(0, 1);
  SmallDiGraph in({0, 1});
  in.AddArc(1, 0);
  EXPECT_NE(EncodeSmallDiGraph(out, 2), EncodeSmallDiGraph(in, 2));
}

TEST(DirectedCensusTest, EncodingInvariantUnderNodeOrder) {
  SmallDiGraph a({0, 1, 0});
  a.AddArc(0, 1);
  a.AddArc(2, 1);
  SmallDiGraph b({0, 1, 0});  // same structure, arcs inserted differently
  b.AddArc(2, 1);
  b.AddArc(0, 1);
  EXPECT_EQ(EncodeSmallDiGraph(a, 2), EncodeSmallDiGraph(b, 2));
}

TEST(DirectedCensusTest, StarOutVsInDiffer) {
  // start -> 3 leaves vs 3 leaves -> start.
  DirectedHetGraph out_star =
      MakeDiGraph({"x"}, {0, 0, 0, 0}, {{0, 1}, {0, 2}, {0, 3}});
  DirectedHetGraph in_star =
      MakeDiGraph({"x"}, {0, 0, 0, 0}, {{1, 0}, {2, 0}, {3, 0}});
  CensusConfig config;
  config.max_edges = 3;
  auto a = Real(out_star, 0, config);
  auto b = Real(in_star, 0, config);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_NE(a, b);  // same sizes, different encodings
}

struct DirectedSweepParam {
  int num_nodes;
  int num_labels;
  double density;
  int max_edges;
  bool mask;
  int dmax;
};

class DirectedCensusSweepTest
    : public ::testing::TestWithParam<DirectedSweepParam> {};

TEST_P(DirectedCensusSweepTest, MatchesBruteForce) {
  const DirectedSweepParam param = GetParam();
  util::Rng rng(777 + param.num_nodes * 131 + param.max_edges);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Label> labels(param.num_nodes);
    for (int v = 0; v < param.num_nodes; ++v) {
      labels[v] = static_cast<Label>(rng.UniformInt(param.num_labels));
    }
    std::vector<std::pair<NodeId, NodeId>> arcs;
    for (int u = 0; u < param.num_nodes; ++u) {
      for (int v = 0; v < param.num_nodes; ++v) {
        if (u != v && rng.Bernoulli(param.density)) arcs.emplace_back(u, v);
      }
    }
    if (arcs.empty() || arcs.size() > 14) continue;
    std::vector<std::string> names;
    for (int l = 0; l < param.num_labels; ++l) {
      names.push_back(std::string(1, static_cast<char>('a' + l)));
    }
    DirectedHetGraph graph = MakeDiGraph(names, labels, arcs);
    NodeId start = static_cast<NodeId>(rng.UniformInt(param.num_nodes));
    if (graph.total_degree(start) == 0) continue;

    CensusConfig config;
    config.max_edges = param.max_edges;
    config.mask_start_label = param.mask;
    config.max_degree = param.dmax;
    auto expected = BruteForce(graph, start, config);
    auto actual = Real(graph, start, config);
    EXPECT_EQ(expected, actual)
        << "trial " << trial << " start " << start;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DirectedCensusSweepTest,
    ::testing::Values(DirectedSweepParam{4, 1, 0.4, 3, false, 0},
                      DirectedSweepParam{5, 2, 0.3, 3, false, 0},
                      DirectedSweepParam{5, 2, 0.3, 4, true, 0},
                      DirectedSweepParam{6, 2, 0.2, 4, false, 0},
                      DirectedSweepParam{6, 3, 0.2, 5, false, 0},
                      DirectedSweepParam{6, 2, 0.25, 4, false, 3},
                      DirectedSweepParam{7, 3, 0.15, 5, true, 4},
                      DirectedSweepParam{5, 1, 0.4, 4, false, 3}));

TEST(DirectedCensusTest, UndirectedViewLosesDirectionInformation) {
  // A 3-cycle and a 3-path-with-reversal have the same undirected view but
  // different directed censuses.
  DirectedHetGraph cycle =
      MakeDiGraph({"x"}, {0, 0, 0}, {{0, 1}, {1, 2}, {2, 0}});
  DirectedHetGraph mixed =
      MakeDiGraph({"x"}, {0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(cycle.ToUndirected().num_edges(), mixed.ToUndirected().num_edges());
  CensusConfig config;
  config.max_edges = 3;
  auto a = Real(cycle, 0, config);
  auto b = Real(mixed, 0, config);
  EXPECT_NE(a, b);
}

TEST(DirectedCensusTest, BudgetTruncates) {
  DiGraphBuilder builder({"h", "l"});
  NodeId hub = builder.AddNode(0);
  for (int i = 0; i < 10; ++i) builder.AddArc(hub, builder.AddNode(1));
  DirectedHetGraph graph = std::move(builder).Build();
  CensusConfig config;
  config.max_edges = 4;
  config.max_subgraphs = 20;
  CensusResult result = RunDirectedCensus(graph, hub, config);
  EXPECT_TRUE(result.truncated);
  EXPECT_GE(result.total_subgraphs, 20);
}

// A complete digraph on `clique` nodes, whose censuses are astronomically
// large, beside a directed path on `path` nodes, whose censuses are tiny.
DirectedHetGraph CliqueBesidePath(int clique, int path) {
  DiGraphBuilder builder({"x", "y"});
  for (int v = 0; v < clique + path; ++v) {
    builder.AddNode(static_cast<Label>(v % 2));
  }
  for (NodeId u = 0; u < clique; ++u) {
    for (NodeId v = 0; v < clique; ++v) {
      if (u != v) builder.AddArc(u, v);
    }
  }
  for (NodeId v = clique; v + 1 < clique + path; ++v) builder.AddArc(v, v + 1);
  return std::move(builder).Build();
}

TEST(DirectedCensusTest, StopTokenStopsRunAndLeavesWorkerClean) {
  const int kClique = 24;
  const int kPath = 8;
  DirectedHetGraph graph = CliqueBesidePath(kClique, kPath);
  CensusConfig config;
  config.max_edges = 6;
  config.keep_encodings = true;
  // Safety net only: ends a census the token failed to stop, which then
  // fails the test instead of hanging it.
  config.max_subgraphs = 200'000'000;
  const NodeId dense_root = 0;
  const NodeId path_root = kClique + kPath / 2;

  for (bool stop_before_run : {true, false}) {
    SCOPED_TRACE(stop_before_run ? "stopped before Run" : "deadline mid-Run");
    DirectedCensusWorker worker(graph, config);
    util::StopSource source;
    if (stop_before_run) {
      source.RequestStop();
    } else {
      source.SetDeadlineAfter(0.05);
    }
    CensusResult stopped;
    worker.Run(dense_root, stopped, source.Token());
    // Not truncated: the deadline, not the far larger budget, ended it.
    EXPECT_TRUE(stopped.stopped);
    EXPECT_FALSE(stopped.truncated);
    if (stop_before_run) {
      EXPECT_EQ(stopped.total_subgraphs, 0);
    }

    // The stopped Run may not leave the worker's scratch poisoned.
    CensusResult reused;
    worker.Run(path_root, reused);
    DirectedCensusWorker fresh_worker(graph, config);
    CensusResult fresh;
    fresh_worker.Run(path_root, fresh);
    EXPECT_FALSE(reused.stopped);
    EXPECT_GT(fresh.total_subgraphs, 0);
    EXPECT_EQ(reused.total_subgraphs, fresh.total_subgraphs);
    EXPECT_TRUE(reused.counts.Equals(fresh.counts));
    EXPECT_EQ(reused.encodings, fresh.encodings);
  }
}

TEST(DirectedCensusTest, MetricsCountEverySubgraph) {
  util::Rng rng(7171);
  const NodeId num_nodes = 12;
  DiGraphBuilder builder({"a", "b"});
  for (NodeId v = 0; v < num_nodes; ++v) {
    builder.AddNode(static_cast<Label>(rng.UniformInt(2)));
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (u != v && rng.Bernoulli(0.2)) builder.AddArc(u, v);
    }
  }
  DirectedHetGraph graph = std::move(builder).Build();
  CensusConfig config;
  config.max_edges = 4;
  config.max_degree = 5;

  util::MetricsRegistry registry;
  DirectedCensusWorker worker(
      graph, config, CensusMetrics::Register(registry, config.max_edges));
  int64_t total = 0;
  int64_t runs = 0;
  for (NodeId start = 0; start < num_nodes; ++start) {
    CensusResult result;
    worker.Run(start, result);
    total += result.total_subgraphs;
    ++runs;
  }
  ASSERT_GT(total, 0);
  const util::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Counter("census.subgraphs_total"), total);
  EXPECT_EQ(snapshot.Counter("census.nodes"), runs);
  int64_t by_edges = 0;
  for (int k = 1; k <= config.max_edges; ++k) {
    by_edges +=
        snapshot.Counter("census.subgraphs.edges_" + std::to_string(k));
  }
  EXPECT_EQ(by_edges, total);
  // Arcs are counted one at a time: nothing is ever grouped.
  EXPECT_EQ(snapshot.Counter("census.label_group_saved"), 0);
}

TEST(DiGraphTest, BuilderAndAccessors) {
  DirectedHetGraph graph =
      MakeDiGraph({"a", "b"}, {0, 1, 1}, {{0, 1}, {1, 0}, {1, 2}, {1, 2}});
  EXPECT_EQ(graph.num_arcs(), 3);  // duplicate deduplicated
  EXPECT_EQ(graph.out_degree(1), 2);
  EXPECT_EQ(graph.in_degree(1), 1);
  EXPECT_TRUE(graph.HasArc(0, 1));
  EXPECT_TRUE(graph.HasArc(1, 0));
  EXPECT_FALSE(graph.HasArc(2, 1));
  graph::HetGraph undirected = graph.ToUndirected();
  EXPECT_EQ(undirected.num_edges(), 2);  // 0-1 merged, 1-2
}

}  // namespace
}  // namespace hsgf::core
