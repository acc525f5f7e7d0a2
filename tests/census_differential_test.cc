// Differential tests for the segment-arena census hot path.
//
// The production workers (CensusWorker / DirectedCensusWorker) enumerate
// candidates through zero-copy segment lists over a shared arena and keep the
// subgraph hash incrementally. These tests retain the *naive* reference
// formulation — a fresh candidate-vector copy per child recursion and a
// from-scratch hash per counted subgraph — and require bit-identical output:
// the same counts map, total_subgraphs, truncated flag, and encodings map,
// across undirected/directed x dmax on/off x mask on/off x group-by-label
// on/off x budget truncation firing mid-run. Any divergence in enumeration
// order (which budget truncation exposes), grouping, hashing, or encoding
// materialization fails here before it could skew a feature matrix. The
// filtered census the stream engine updates rows with (RunThrough) is held
// to the same reference with a changed-edge filter on its count.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/census.h"
#include "core/directed_census.h"
#include "core/encoding.h"
#include "core/rolling_hash.h"
#include "data/generator.h"
#include "data/schema.h"
#include "graph/builder.h"
#include "graph/digraph.h"
#include "graph/het_graph.h"
#include "gstore/cgraph_writer.h"
#include "gstore/compressed_graph.h"
#include "simd/dispatch.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stop_token.h"

namespace hsgf::core {
namespace {

using graph::DirectedHetGraph;
using graph::HetGraph;
using graph::Label;
using graph::MakeGraph;
using graph::NodeId;

// Same SplitMix64 finalizer the workers use for mix_contributions.
uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- Undirected reference ---------------------------------------------------

// The pre-segment-arena census, kept verbatim in its copy-heavy form: each
// child recursion takes the candidate tail *by value* and the subgraph hash
// is recomputed from the edge stack on every count. Shares no enumeration
// machinery with CensusWorker beyond the graph and the RollingHash tables.
class ReferenceCensus {
 public:
  ReferenceCensus(const HetGraph& graph, const CensusConfig& config)
      : graph_(graph),
        config_(config),
        hasher_(graph.num_labels() + (config.mask_start_label ? 1 : 0),
                config.hash_seed),
        num_effective_labels_(graph.num_labels() +
                              (config.mask_start_label ? 1 : 0)),
        in_subgraph_(graph.num_nodes(), 0) {}

  // From now on count only edge stacks that hold one of `changed` (pairs in
  // either order). Grouping must be off: a run's candidates differ in
  // whether their own edge is changed.
  void FilterThrough(const std::vector<std::pair<NodeId, NodeId>>& changed) {
    ASSERT_FALSE(config_.group_by_label);
    filtered_ = true;
    changed_.clear();
    for (const auto& [u, v] : changed) {
      changed_.emplace(std::min(u, v), std::max(u, v));
    }
  }

  void Run(NodeId start, CensusResult& result) {
    result.counts.Clear();
    result.encodings.clear();
    result.total_subgraphs = 0;
    result.truncated = false;
    result.stopped = false;

    start_ = start;
    in_subgraph_[start] = 1;
    std::vector<Candidate> candidates;
    for (NodeId y : graph_.neighbors(start)) candidates.push_back({start, y});
    Extend(std::move(candidates), 0, result);
    in_subgraph_[start] = 0;
  }

 private:
  struct Candidate {
    NodeId from;
    NodeId to;
  };

  Label Effective(NodeId v) const {
    if (config_.mask_start_label && v == start_) {
      return static_cast<Label>(graph_.num_labels());
    }
    return graph_.label(v);
  }

  bool IsBlocked(NodeId v) const {
    return config_.max_degree > 0 && v != start_ &&
           graph_.degree(v) > config_.max_degree;
  }

  void AppendFrontier(NodeId w, NodeId parent, std::vector<Candidate>& out) {
    if (IsBlocked(w)) return;
    for (NodeId y : graph_.neighbors(w)) {
      if (!in_subgraph_[y]) {
        out.push_back({w, y});
      } else if (IsBlocked(y) && y != parent) {
        out.push_back({w, y});
      }
    }
  }

  // From-scratch Eq. 5 hash of edge_stack_: per-node linear contributions
  // accumulated over incident edges, optionally finalized, then summed.
  uint64_t HashStack() const {
    std::vector<std::pair<NodeId, uint64_t>> contributions;
    auto contribution_of = [&](NodeId v) -> uint64_t& {
      for (auto& [node, c] : contributions) {
        if (node == v) return c;
      }
      contributions.emplace_back(v, 0);
      return contributions.back().second;
    };
    for (const auto& [u, v] : edge_stack_) {
      contribution_of(u) += hasher_.Power(Effective(u), Effective(v));
      contribution_of(v) += hasher_.Power(Effective(v), Effective(u));
    }
    uint64_t hash = 0;
    for (const auto& [node, c] : contributions) {
      hash += config_.mix_contributions ? Mix(c) : c;
    }
    return hash;
  }

  bool StackCounts() const {
    if (!filtered_) return true;
    for (const auto& [u, v] : edge_stack_) {
      if (changed_.contains({std::min(u, v), std::max(u, v)})) return true;
    }
    return false;
  }

  Encoding EncodeStack() const {
    std::vector<NodeId> nodes;
    for (const auto& [u, v] : edge_stack_) {
      nodes.push_back(u);
      nodes.push_back(v);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    auto index_of = [&nodes](NodeId v) {
      return static_cast<size_t>(
          std::lower_bound(nodes.begin(), nodes.end(), v) - nodes.begin());
    };
    std::vector<NodeSignature> signatures(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      signatures[i].label = Effective(nodes[i]);
      signatures[i].neighbor_counts.assign(num_effective_labels_, 0);
    }
    for (const auto& [u, v] : edge_stack_) {
      ++signatures[index_of(u)].neighbor_counts[Effective(v)];
      ++signatures[index_of(v)].neighbor_counts[Effective(u)];
    }
    return EncodeSignatures(std::move(signatures), num_effective_labels_);
  }

  void Extend(std::vector<Candidate> candidates, int depth,
              CensusResult& result) {
    size_t i = 0;
    while (i < candidates.size()) {
      if (config_.max_subgraphs > 0 &&
          result.total_subgraphs >= config_.max_subgraphs) {
        result.truncated = true;
        return;
      }
      const Candidate head = candidates[i];
      const bool head_is_new_node = !in_subgraph_[head.to];
      size_t j = i + 1;
      if (head_is_new_node && config_.group_by_label) {
        const Label head_label = Effective(head.to);
        while (j < candidates.size() && candidates[j].from == head.from &&
               !in_subgraph_[candidates[j].to] &&
               Effective(candidates[j].to) == head_label) {
          ++j;
        }
      }
      const auto run = static_cast<int64_t>(j - i);

      edge_stack_.emplace_back(head.from, head.to);
      if (StackCounts()) {
        const uint64_t hash_after = HashStack();
        result.counts.Add(hash_after, run);
        result.total_subgraphs += run;
        if (config_.keep_encodings && !result.encodings.contains(hash_after)) {
          result.encodings.emplace(hash_after, EncodeStack());
        }
      }
      edge_stack_.pop_back();

      if (depth + 1 < config_.max_edges) {
        for (size_t k = i; k < j; ++k) {
          if (result.truncated) return;
          const Candidate edge = candidates[k];
          NodeId added = -1;
          if (!in_subgraph_[edge.to]) {
            in_subgraph_[edge.to] = 1;
            added = edge.to;
          }
          edge_stack_.emplace_back(edge.from, edge.to);
          // The naive child candidate list: a fresh copy of the tail.
          std::vector<Candidate> child(candidates.begin() + k + 1,
                                       candidates.end());
          if (added != -1) AppendFrontier(added, edge.from, child);
          Extend(std::move(child), depth + 1, result);
          edge_stack_.pop_back();
          if (added != -1) in_subgraph_[added] = 0;
        }
      }
      i = j;
    }
  }

  const HetGraph& graph_;
  CensusConfig config_;
  RollingHash hasher_;
  int num_effective_labels_;
  NodeId start_ = -1;
  std::vector<char> in_subgraph_;
  std::vector<std::pair<NodeId, NodeId>> edge_stack_;
  bool filtered_ = false;
  std::set<std::pair<NodeId, NodeId>> changed_;  // (min, max) pairs
};

// --- Directed reference -----------------------------------------------------

// Naive counterpart of DirectedCensusWorker: tail copies per child,
// from-scratch hashes from independently rebuilt in/out base families, and
// encodings through SmallDiGraph instead of the worker's block scratch.
class ReferenceDirectedCensus {
 public:
  ReferenceDirectedCensus(const DirectedHetGraph& graph,
                          const CensusConfig& config)
      : graph_(graph),
        config_(config),
        num_effective_labels_(graph.num_labels() +
                              (config.mask_start_label ? 1 : 0)),
        in_subgraph_(graph.num_nodes(), 0) {
    // Rebuild the worker's two odd base families from the seed (the
    // construction is part of the hash contract: out-bases drawn first).
    const int L = num_effective_labels_;
    out_bases_.resize(L);
    in_bases_.resize(L);
    uint64_t state = config_.hash_seed ^ 0x5851f42d4c957f2dULL;
    for (int l = 0; l < L; ++l) out_bases_[l] = util::SplitMix64(state) | 1ULL;
    for (int l = 0; l < L; ++l) in_bases_[l] = util::SplitMix64(state) | 1ULL;
  }

  void Run(NodeId start, CensusResult& result) {
    result.counts.Clear();
    result.encodings.clear();
    result.total_subgraphs = 0;
    result.truncated = false;
    result.stopped = false;

    start_ = start;
    in_subgraph_[start] = 1;
    std::vector<Candidate> candidates;
    for (NodeId y : graph_.successors(start)) candidates.push_back({start, y});
    for (NodeId y : graph_.predecessors(start)) candidates.push_back({y, start});
    Extend(std::move(candidates), 0, result);
    in_subgraph_[start] = 0;
  }

 private:
  struct Candidate {
    NodeId tail;
    NodeId head;
  };

  Label Effective(NodeId v) const {
    if (config_.mask_start_label && v == start_) {
      return static_cast<Label>(graph_.num_labels());
    }
    return graph_.label(v);
  }

  bool IsBlocked(NodeId v) const {
    return config_.max_degree > 0 && v != start_ &&
           graph_.total_degree(v) > config_.max_degree;
  }

  // base^(exponent+1) by repeated multiplication (the worker precomputes a
  // power table; recomputing keeps the reference independent of it).
  static uint64_t PowerOf(uint64_t base, Label exponent) {
    uint64_t p = base;
    for (Label e = 0; e < exponent; ++e) p *= base;
    return p;
  }

  void AppendFrontier(NodeId w, const Candidate& discovery,
                      std::vector<Candidate>& out) {
    if (IsBlocked(w)) return;
    auto offer = [&](NodeId tail, NodeId head, NodeId other) {
      if (!in_subgraph_[other]) {
        out.push_back({tail, head});
      } else if (IsBlocked(other) &&
                 !(tail == discovery.tail && head == discovery.head)) {
        out.push_back({tail, head});
      }
    };
    for (NodeId y : graph_.successors(w)) offer(w, y, y);
    for (NodeId y : graph_.predecessors(w)) offer(y, w, y);
  }

  uint64_t HashStack() const {
    std::vector<std::pair<NodeId, uint64_t>> contributions;
    auto contribution_of = [&](NodeId v) -> uint64_t& {
      for (auto& [node, c] : contributions) {
        if (node == v) return c;
      }
      contributions.emplace_back(v, 0);
      return contributions.back().second;
    };
    for (const auto& [t, h] : arc_stack_) {
      contribution_of(t) += PowerOf(out_bases_[Effective(t)], Effective(h));
      contribution_of(h) += PowerOf(in_bases_[Effective(h)], Effective(t));
    }
    uint64_t hash = 0;
    for (const auto& [node, c] : contributions) {
      hash += config_.mix_contributions ? Mix(c) : c;
    }
    return hash;
  }

  Encoding EncodeStack() const {
    std::vector<NodeId> nodes;
    for (const auto& [t, h] : arc_stack_) {
      nodes.push_back(t);
      nodes.push_back(h);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    auto index_of = [&nodes](NodeId v) {
      return static_cast<int>(std::lower_bound(nodes.begin(), nodes.end(), v) -
                              nodes.begin());
    };
    std::vector<Label> labels(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) labels[i] = Effective(nodes[i]);
    SmallDiGraph small(std::move(labels));
    for (const auto& [t, h] : arc_stack_) small.AddArc(index_of(t), index_of(h));
    return EncodeSmallDiGraph(small, num_effective_labels_);
  }

  void Extend(std::vector<Candidate> candidates, int depth,
              CensusResult& result) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (config_.max_subgraphs > 0 &&
          result.total_subgraphs >= config_.max_subgraphs) {
        result.truncated = true;
        return;
      }
      const Candidate arc = candidates[i];
      NodeId added = -1;
      if (!in_subgraph_[arc.tail]) {
        in_subgraph_[arc.tail] = 1;
        added = arc.tail;
      } else if (!in_subgraph_[arc.head]) {
        in_subgraph_[arc.head] = 1;
        added = arc.head;
      }
      arc_stack_.emplace_back(arc.tail, arc.head);

      const uint64_t hash = HashStack();
      result.counts.Add(hash, 1);
      ++result.total_subgraphs;
      if (config_.keep_encodings && !result.encodings.contains(hash)) {
        result.encodings.emplace(hash, EncodeStack());
      }

      if (depth + 1 < config_.max_edges) {
        std::vector<Candidate> child(candidates.begin() + i + 1,
                                     candidates.end());
        if (added != -1) AppendFrontier(added, arc, child);
        Extend(std::move(child), depth + 1, result);
      }
      arc_stack_.pop_back();
      if (added != -1) in_subgraph_[added] = 0;
      if (result.truncated) return;
    }
  }

  const DirectedHetGraph& graph_;
  CensusConfig config_;
  int num_effective_labels_;
  std::vector<uint64_t> out_bases_;
  std::vector<uint64_t> in_bases_;
  NodeId start_ = -1;
  std::vector<char> in_subgraph_;
  std::vector<std::pair<NodeId, NodeId>> arc_stack_;
};

// --- Comparison -------------------------------------------------------------

void ExpectIdenticalResults(const CensusResult& expected,
                            const CensusResult& actual,
                            const std::string& context) {
  EXPECT_EQ(expected.total_subgraphs, actual.total_subgraphs) << context;
  EXPECT_EQ(expected.truncated, actual.truncated) << context;
  EXPECT_EQ(expected.counts.size(), actual.counts.size()) << context;
  EXPECT_TRUE(expected.counts.Equals(actual.counts)) << context;
  EXPECT_EQ(expected.encodings, actual.encodings) << context;
}

std::string Describe(NodeId start, const CensusConfig& config) {
  return "start=" + std::to_string(start) +
         " emax=" + std::to_string(config.max_edges) +
         " keep=" + std::to_string(config.keep_encodings) +
         " dmax=" + std::to_string(config.max_degree) +
         " mask=" + std::to_string(config.mask_start_label) +
         " group=" + std::to_string(config.group_by_label) +
         " mix=" + std::to_string(config.mix_contributions) +
         " budget=" + std::to_string(config.max_subgraphs);
}

// Picks up to `want` start nodes with at least one incident edge.
template <typename DegreeFn>
std::vector<NodeId> PickStarts(NodeId num_nodes, DegreeFn&& degree, int want) {
  std::vector<NodeId> starts;
  for (NodeId v = 0; v < num_nodes && static_cast<int>(starts.size()) < want;
       ++v) {
    if (degree(v) > 0) starts.push_back(v);
  }
  return starts;
}

// --- Tests ------------------------------------------------------------------

// One undirected input of the differential, with the starts it is run from
// and the dmax values it is run at.
struct UndirectedCase {
  std::string name;
  HetGraph graph;
  std::vector<NodeId> starts;
  std::vector<int> dmax_values;
  bool mix;
};

// Five sparse random graphs, plus a clique-heavy LOAD-like graph where
// siblings of a grouped run are often adjacent to each other and a sibling
// is often met again in a later member's segment.
std::vector<UndirectedCase> UndirectedCases() {
  std::vector<UndirectedCase> cases;
  util::Rng rng(20260806);
  for (int trial = 0; trial < 5; ++trial) {
    const NodeId num_nodes = 12 + 2 * trial;
    const int num_labels = 3;
    std::vector<Label> labels(num_nodes);
    for (auto& l : labels) l = static_cast<Label>(rng.UniformInt(num_labels));
    std::vector<std::pair<NodeId, NodeId>> edges;
    const double density = 2.8 / num_nodes;
    for (NodeId u = 0; u < num_nodes; ++u) {
      for (NodeId v = u + 1; v < num_nodes; ++v) {
        if (rng.Bernoulli(density)) edges.emplace_back(u, v);
      }
    }
    if (edges.empty()) continue;
    HetGraph graph = MakeGraph({"a", "b", "c"}, labels, edges);
    std::vector<NodeId> starts = PickStarts(
        num_nodes, [&](NodeId v) { return graph.degree(v); }, 3);
    cases.push_back({"random" + std::to_string(trial), std::move(graph),
                     std::move(starts), {0, 3}, trial % 2 == 0});
  }
  // Low-degree starts and dmax values that keep the naive reference's work
  // small: the graph's hubs are blocked, its dense label blocks are not.
  HetGraph load = data::MakeNetwork(data::LoadLikeSchema(0.1), 7);
  std::vector<NodeId> starts;
  for (NodeId v = 0; v < load.num_nodes() && starts.size() < 3; v += 37) {
    if (load.degree(v) >= 2 && load.degree(v) <= 6) starts.push_back(v);
  }
  cases.push_back({"load", std::move(load), std::move(starts), {6, 12}, true});
  return cases;
}

// Every undirected census mode against the naive reference, on the CSR and
// on a paged compressed copy: emax 2–5 × dmax × mask × grouping × whether
// encodings are kept, each also under budgets that stop it mid-run. Without
// encodings and with grouping on, a frame one edge short of emax counts
// each grouped run's leaves in one pass and falls back to the children one
// by one when the budget would fire inside them; the metrics prove both
// paths ran, and budget truncation proves both stop on the same subgraph.
TEST(CensusDifferentialTest, UndirectedMatchesNaiveReferenceAcrossModes) {
  const std::string path = ::testing::TempDir() + "census_diff_modes.hscg";
  util::MetricsRegistry registry;
  const CensusMetrics metrics = CensusMetrics::Register(registry, 5);
  // Reference reruns per budget slot, and how many of them the budget
  // stopped. A rerun whose last grouped run carries the count from under
  // the budget to the full total is not stopped, so past the budget of 1 the
  // check is that every slot stops some reruns, not that each rerun stops.
  constexpr int kBudgetSlots = 5;
  std::array<int64_t, kBudgetSlots> budget_reruns{};
  std::array<int64_t, kBudgetSlots> budget_truncations{};
  for (const UndirectedCase& input : UndirectedCases()) {
    SCOPED_TRACE(input.name);
    const HetGraph& graph = input.graph;
    gstore::CGraphWriterOptions woptions;
    woptions.block_target_entries = 4;  // every few nodes cross a block
    gstore::CGraphError error;
    ASSERT_TRUE(gstore::WriteCompressedGraph(path, graph, &error, woptions))
        << error.ToString();
    gstore::CGraphOptions roptions;
    roptions.cache_bytes = 1;  // one slot per shard: evictions mid-census
    auto compressed = gstore::CompressedGraph::Open(path, roptions, &error);
    ASSERT_NE(compressed, nullptr) << error.ToString();
    gstore::GraphView view = compressed->MakeView();

    for (bool keep : {true, false}) {
      for (int emax = 2; emax <= 5; ++emax) {
        for (bool mask : {false, true}) {
          for (int dmax : input.dmax_values) {
            for (bool group : {true, false}) {
              CensusConfig config;
              config.max_edges = emax;
              config.max_degree = dmax;
              config.mask_start_label = mask;
              config.group_by_label = group;
              config.mix_contributions = input.mix;
              config.keep_encodings = keep;

              // One worker per storage reused across starts, so the
              // epoch-stamped scratch and the segment arena carry over
              // between censuses as production extraction has them.
              CensusWorker worker(graph, config, metrics);
              BasicCensusWorker<gstore::GraphView> cgraph_worker(view, config,
                                                                 metrics);
              ReferenceCensus reference(graph, config);
              for (NodeId start : input.starts) {
                CensusResult expected;
                CensusResult actual;
                CensusResult actual_cgraph;
                reference.Run(start, expected);
                worker.Run(start, actual);
                cgraph_worker.Run(start, actual_cgraph);
                ExpectIdenticalResults(expected, actual,
                                       Describe(start, config));
                ExpectIdenticalResults(expected, actual_cgraph,
                                       "cgraph " + Describe(start, config));

                // Budget truncation mid-run: both enumerators must stop at
                // the same subgraph, making truncation order-sensitive proof
                // of identical enumeration order. Also the degenerate budget
                // of 1, and budgets late in the run, where leaf groups are.
                const int64_t total = expected.total_subgraphs;
                if (total < 2) continue;
                const std::array<int64_t, kBudgetSlots> budgets = {
                    1, total / 3 + 1, total / 2 + 1, total - total / 8,
                    total - 1};
                for (int slot = 0; slot < kBudgetSlots; ++slot) {
                  CensusConfig truncated_config = config;
                  truncated_config.max_subgraphs = budgets[slot];
                  CensusWorker truncated_worker(graph, truncated_config,
                                                metrics);
                  BasicCensusWorker<gstore::GraphView> truncated_cgraph(
                      view, truncated_config, metrics);
                  ReferenceCensus truncated_reference(graph, truncated_config);
                  CensusResult expected_truncated;
                  CensusResult actual_truncated;
                  CensusResult cgraph_truncated;
                  truncated_reference.Run(start, expected_truncated);
                  truncated_worker.Run(start, actual_truncated);
                  truncated_cgraph.Run(start, cgraph_truncated);
                  // A budget of 1 always stops it: the first head counts at
                  // least one subgraph, and at emax 2 or more with a total of
                  // 2 or more another head follows.
                  if (slot == 0) {
                    EXPECT_TRUE(expected_truncated.truncated)
                        << Describe(start, truncated_config);
                  }
                  ++budget_reruns[slot];
                  if (expected_truncated.truncated) ++budget_truncations[slot];
                  ExpectIdenticalResults(expected_truncated, actual_truncated,
                                         Describe(start, truncated_config));
                  ExpectIdenticalResults(
                      expected_truncated, cgraph_truncated,
                      "cgraph " + Describe(start, truncated_config));
                }
              }
            }
          }
        }
      }
    }
  }
  int64_t truncations = 0;
  for (int slot = 0; slot < kBudgetSlots; ++slot) {
    EXPECT_GT(budget_truncations[slot], 0)
        << "budget slot " << slot << " never stopped the reference in "
        << budget_reruns[slot] << " reruns";
    truncations += budget_truncations[slot];
  }
  const util::MetricsSnapshot snapshot = registry.Snapshot();
  // Each truncated reference rerun is matched by a truncated CSR census and
  // a truncated cgraph census, and only those hit the budget.
  EXPECT_EQ(snapshot.Counter("census.budget_truncated_nodes"),
            2 * truncations);
  EXPECT_GT(snapshot.Counter("census.leaf_groups"), 0);
  EXPECT_GT(snapshot.Counter("census.leaf_group_fallbacks"), 0);
  EXPECT_GT(snapshot.Counter("census.label_group_saved"), 0);
  int64_t by_edges = 0;
  for (int k = 1; k <= 5; ++k) {
    by_edges += snapshot.Counter("census.subgraphs.edges_" + std::to_string(k));
  }
  EXPECT_EQ(by_edges, snapshot.Counter("census.subgraphs_total"));
}

// A graph that requests stop on its `fire_at`-th adjacency read, so a
// census over it stops at a fixed point mid-enumeration.
class StopOnRead {
 public:
  StopOnRead(const HetGraph& graph, util::StopSource& source, int64_t fire_at)
      : graph_(graph), source_(source), fire_at_(fire_at) {}

  NodeId num_nodes() const { return graph_.num_nodes(); }
  int num_labels() const { return graph_.num_labels(); }
  Label label(NodeId v) const { return graph_.label(v); }
  int degree(NodeId v) const { return graph_.degree(v); }
  std::span<const NodeId> neighbors(NodeId v) const {
    if (++reads_ == fire_at_) source_.RequestStop();
    return graph_.neighbors(v);
  }
  int64_t reads() const { return reads_; }

 private:
  const HetGraph& graph_;
  util::StopSource& source_;
  int64_t fire_at_;
  mutable int64_t reads_ = 0;
};

// A StopToken that fires in the middle of a census, where most of the work
// is leaf groups, stops it with partial counts soon after, and the worker's
// next census is exact.
TEST(CensusDifferentialTest, StopMidCensusLeavesWorkerReusable) {
  const HetGraph graph = data::MakeNetwork(data::LoadLikeSchema(0.1), 7);
  CensusConfig config;
  config.max_edges = 5;
  config.max_degree = 12;
  util::MetricsRegistry registry;
  util::StopSource source;
  constexpr int64_t kFireAt = 50;
  StopOnRead stopping(graph, source, kFireAt);
  BasicCensusWorker<StopOnRead> worker(
      stopping, config, CensusMetrics::Register(registry, config.max_edges));
  ReferenceCensus reference(graph, config);
  const std::vector<NodeId> starts = {74, 222, 259};
  for (NodeId start : starts) {
    ASSERT_LE(graph.degree(start), 6);
  }

  CensusResult expected;
  reference.Run(starts[0], expected);
  CensusResult stopped;
  worker.Run(starts[0], stopped, source.Token());
  EXPECT_TRUE(stopped.stopped);
  // The census polls at least once per 1024 steps of work, leaf groups
  // included (each charges its siblings' adjacency reads), so the stop is
  // seen well within 1024 further reads; this census reads ~1600 in all.
  EXPECT_LT(stopping.reads() - kFireAt, 1024);
  EXPECT_GT(stopped.total_subgraphs, 0);
  EXPECT_LT(stopped.total_subgraphs, expected.total_subgraphs);
  const util::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Counter("census.stopped_nodes"), 1);
  EXPECT_GT(snapshot.Counter("census.leaf_groups"), 0);

  for (NodeId start : starts) {
    CensusResult want;
    CensusResult got;
    reference.Run(start, want);
    worker.Run(start, got);
    ExpectIdenticalResults(want, got, "after stop " + Describe(start, config));
  }
}

TEST(CensusDifferentialTest, DirectedMatchesNaiveReferenceAcrossModes) {
  util::Rng rng(80620261);
  for (int trial = 0; trial < 5; ++trial) {
    const NodeId num_nodes = 10 + 2 * trial;
    const int num_labels = 3;
    graph::DiGraphBuilder builder({"a", "b", "c"});
    for (NodeId v = 0; v < num_nodes; ++v) {
      builder.AddNode(static_cast<Label>(rng.UniformInt(num_labels)));
    }
    const double density = 2.0 / num_nodes;
    int arcs = 0;
    for (NodeId u = 0; u < num_nodes; ++u) {
      for (NodeId v = 0; v < num_nodes; ++v) {
        if (u != v && rng.Bernoulli(density)) {
          builder.AddArc(u, v);
          ++arcs;
        }
      }
    }
    if (arcs == 0) continue;
    DirectedHetGraph graph = std::move(builder).Build();

    for (bool mask : {false, true}) {
      for (int dmax : {0, 3}) {
        // The reference ignores grouping: directed output must too,
        // truncation points included.
        for (bool group : {true, false}) {
          CensusConfig config;
          config.max_edges = 4;
          config.max_degree = dmax;
          config.mask_start_label = mask;
          config.group_by_label = group;
          config.mix_contributions = (trial % 2 == 0);
          config.keep_encodings = true;

          DirectedCensusWorker worker(graph, config);
          ReferenceDirectedCensus reference(graph, config);
          for (NodeId start : PickStarts(
                   num_nodes, [&](NodeId v) { return graph.total_degree(v); },
                   3)) {
            CensusResult expected;
            CensusResult actual;
            reference.Run(start, expected);
            worker.Run(start, actual);
            ExpectIdenticalResults(expected, actual, Describe(start, config));

            for (int64_t budget :
                 {int64_t{1}, expected.total_subgraphs / 2 + 1}) {
              if (expected.total_subgraphs < 2) break;
              CensusConfig truncated_config = config;
              truncated_config.max_subgraphs = budget;
              DirectedCensusWorker truncated_worker(graph, truncated_config);
              ReferenceDirectedCensus truncated_reference(graph,
                                                          truncated_config);
              CensusResult expected_truncated;
              CensusResult actual_truncated;
              truncated_reference.Run(start, expected_truncated);
              truncated_worker.Run(start, actual_truncated);
              ExpectIdenticalResults(expected_truncated, actual_truncated,
                                     Describe(start, truncated_config));
            }
          }
        }
      }
    }
  }
}

// RunThrough counts exactly the subgraphs of a full census that hold a
// changed edge. The reference enumerates everything and filters its count;
// the worker prunes every branch that cannot reach a changed edge, exempts
// the start from dmax in its own distance, and keeps grouping on or off.
// Every node is a start, so starts far from every changed edge (empty
// results) and blocked hub starts are covered.
TEST(CensusDifferentialTest, RunThroughMatchesFilteredReference) {
  util::Rng rng(20261019);
  for (int trial = 0; trial < 5; ++trial) {
    const NodeId num_nodes = 12 + 2 * trial;
    std::vector<Label> labels(num_nodes);
    for (auto& l : labels) l = static_cast<Label>(rng.UniformInt(3));
    std::vector<std::pair<NodeId, NodeId>> edges;
    const double density = 3.2 / num_nodes;
    for (NodeId u = 0; u < num_nodes; ++u) {
      for (NodeId v = u + 1; v < num_nodes; ++v) {
        if (rng.Bernoulli(density)) edges.emplace_back(u, v);
      }
    }
    if (edges.empty()) continue;
    HetGraph graph = MakeGraph({"a", "b", "c"}, labels, edges);

    for (bool mask : {false, true}) {
      for (int dmax : {0, 3}) {
        CensusConfig config;
        config.max_edges = 4;
        config.max_degree = dmax;
        config.mask_start_label = mask;
        config.group_by_label = false;
        config.mix_contributions = (trial % 2 == 0);
        config.keep_encodings = true;
        for (int draw = 1; draw <= 3; ++draw) {
          // `draw` changed edges; an edge drawn twice is one edge.
          std::vector<std::pair<NodeId, NodeId>> changed;
          for (int k = 0; k < draw; ++k) {
            const auto& [u, v] = edges[rng.UniformInt(edges.size())];
            if (rng.Bernoulli(0.5)) {
              changed.emplace_back(u, v);
            } else {
              changed.emplace_back(v, u);
            }
          }
          ReferenceCensus reference(graph, config);
          reference.FilterThrough(changed);
          const ChangedEdges through(graph, changed, config);
          for (bool group : {false, true}) {
            CensusConfig worker_config = config;
            worker_config.group_by_label = group;
            CensusWorker worker(graph, worker_config);
            for (NodeId start = 0; start < num_nodes; ++start) {
              CensusResult expected;
              CensusResult actual;
              reference.Run(start, expected);
              worker.RunThrough(start, through, actual);
              ExpectIdenticalResults(
                  expected, actual,
                  "through " + std::to_string(draw) + " edges, " +
                      Describe(start, worker_config));
            }
          }
        }
      }
    }
  }
}

// The segment arena and metrics batch must reset cleanly between runs even
// when the previous run was truncated mid-recursion: interleave truncated
// and complete censuses on ONE worker and require the complete ones to stay
// bit-identical to a fresh worker's output.
template <typename Worker, typename Graph, typename DegreeFn>
void ExpectTruncatedRunsLeaveWorkerClean(const Graph& graph,
                                         NodeId num_nodes, DegreeFn&& degree,
                                         const std::string& name) {
  SCOPED_TRACE(name);
  CensusConfig full_config;
  full_config.max_edges = 4;
  full_config.keep_encodings = true;
  CensusConfig truncated_config = full_config;
  truncated_config.max_subgraphs = 17;  // fires deep inside the recursion

  Worker truncated_worker(graph, truncated_config);
  Worker reused_worker(graph, full_config);
  bool any_truncated = false;
  for (NodeId start : PickStarts(num_nodes, degree, 6)) {
    // The reused truncated worker must match a fresh one: its previous
    // truncated Run unwound mid-recursion and may not leave arena, segment
    // stack, or epoch scratch poisoned.
    CensusResult from_reused_truncated;
    truncated_worker.Run(start, from_reused_truncated);
    any_truncated |= from_reused_truncated.truncated;
    Worker fresh_truncated_worker(graph, truncated_config);
    CensusResult from_fresh_truncated;
    fresh_truncated_worker.Run(start, from_fresh_truncated);
    ExpectIdenticalResults(from_fresh_truncated, from_reused_truncated,
                           "reused-truncated start=" + std::to_string(start));

    CensusResult from_reused;
    reused_worker.Run(start, from_reused);

    Worker fresh_worker(graph, full_config);
    CensusResult from_fresh;
    fresh_worker.Run(start, from_fresh);
    ExpectIdenticalResults(from_fresh, from_reused,
                           "reused-after-truncation start=" +
                               std::to_string(start));
  }
  EXPECT_TRUE(any_truncated) << "the budget never fired";
}

TEST(CensusDifferentialTest, TruncatedRunsDoNotPoisonSubsequentRuns) {
  util::Rng rng(424242);
  const NodeId num_nodes = 14;
  std::vector<Label> labels(num_nodes);
  for (auto& l : labels) l = static_cast<Label>(rng.UniformInt(2));
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = u + 1; v < num_nodes; ++v) {
      if (rng.Bernoulli(0.25)) edges.emplace_back(u, v);
    }
  }
  ASSERT_FALSE(edges.empty());
  HetGraph graph = MakeGraph({"x", "y"}, labels, edges);
  ExpectTruncatedRunsLeaveWorkerClean<CensusWorker>(
      graph, num_nodes, [&](NodeId v) { return graph.degree(v); },
      "undirected");

  graph::DiGraphBuilder builder({"x", "y"});
  for (NodeId v = 0; v < num_nodes; ++v) {
    builder.AddNode(static_cast<Label>(rng.UniformInt(2)));
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (u != v && rng.Bernoulli(0.15)) builder.AddArc(u, v);
    }
  }
  DirectedHetGraph digraph = std::move(builder).Build();
  ASSERT_GT(digraph.num_arcs(), 0);
  ExpectTruncatedRunsLeaveWorkerClean<DirectedCensusWorker>(
      digraph, num_nodes, [&](NodeId v) { return digraph.total_degree(v); },
      "directed");
}

// --- Out-of-core differential -----------------------------------------------
//
// The compressed graph store (src/gstore) claims bit-identity: a census run
// through GraphView / DirectedGraphView over an HSGFCGRF container must equal
// the CSR census byte for byte — same counts, same enumeration order (probed
// via budget truncation), same encodings. Containers are written with tiny
// blocks and opened with a minimal cache so the census actually pages and
// evicts mid-enumeration.

TEST(CensusDifferentialTest, CompressedGraphMatchesCsrAcrossModes) {
  util::Rng rng(91620268);
  const std::string path = ::testing::TempDir() + "census_diff.hscg";
  for (int trial = 0; trial < 4; ++trial) {
    const NodeId num_nodes = 14 + 3 * trial;
    const int num_labels = 3;
    std::vector<Label> labels(num_nodes);
    for (auto& l : labels) l = static_cast<Label>(rng.UniformInt(num_labels));
    std::vector<std::pair<NodeId, NodeId>> edges;
    const double density = 3.0 / num_nodes;
    for (NodeId u = 0; u < num_nodes; ++u) {
      for (NodeId v = u + 1; v < num_nodes; ++v) {
        if (rng.Bernoulli(density)) edges.emplace_back(u, v);
      }
    }
    if (edges.empty()) continue;
    HetGraph graph = MakeGraph({"a", "b", "c"}, labels, edges);

    gstore::CGraphWriterOptions woptions;
    woptions.block_target_entries = 4;  // every few nodes cross a block
    gstore::CGraphError error;
    ASSERT_TRUE(gstore::WriteCompressedGraph(path, graph, &error, woptions))
        << error.ToString();
    gstore::CGraphOptions roptions;
    roptions.cache_bytes = 1;  // one slot per shard: evictions mid-census
    auto compressed = gstore::CompressedGraph::Open(path, roptions, &error);
    ASSERT_NE(compressed, nullptr) << error.ToString();
    gstore::GraphView view = compressed->MakeView();

    for (bool mask : {false, true}) {
      for (int dmax : {0, 3}) {
        for (bool group : {true, false}) {
          CensusConfig config;
          config.max_edges = 4;
          config.max_degree = dmax;
          config.mask_start_label = mask;
          config.group_by_label = group;
          config.mix_contributions = (trial % 2 == 0);
          config.keep_encodings = true;

          CensusWorker csr_worker(graph, config);
          BasicCensusWorker<gstore::GraphView> cgraph_worker(view, config);
          for (NodeId start :
               PickStarts(num_nodes, [&](NodeId v) { return graph.degree(v); },
                          3)) {
            CensusResult expected;
            CensusResult actual;
            csr_worker.Run(start, expected);
            cgraph_worker.Run(start, actual);
            ExpectIdenticalResults(expected, actual,
                                   "cgraph " + Describe(start, config));

            // Budget truncation is the enumeration-order probe: both sides
            // must stop on the same subgraph even though one pages blocks.
            for (int64_t budget :
                 {int64_t{1}, expected.total_subgraphs / 2 + 1}) {
              if (expected.total_subgraphs < 2) break;
              CensusConfig truncated_config = config;
              truncated_config.max_subgraphs = budget;
              CensusWorker truncated_csr(graph, truncated_config);
              BasicCensusWorker<gstore::GraphView> truncated_cgraph(
                  view, truncated_config);
              CensusResult expected_truncated;
              CensusResult actual_truncated;
              truncated_csr.Run(start, expected_truncated);
              truncated_cgraph.Run(start, actual_truncated);
              ExpectIdenticalResults(
                  expected_truncated, actual_truncated,
                  "cgraph " + Describe(start, truncated_config));
            }
          }
        }
      }
    }
  }
}

// The census micro-benchmark's workload — LOAD-like graph, emax 5, dmax 40,
// 128 sampled roots, hubs included — on the CSR and on a compressed copy
// read through the default cache: every root's count map must match, not
// just the subgraph totals.
TEST(CensusDifferentialTest, CompressedGraphMatchesCsrOnLoadLikeWorkload) {
  const HetGraph graph = data::MakeNetwork(data::LoadLikeSchema(0.25), 5);
  const std::string path = ::testing::TempDir() + "census_diff_load.hscg";
  gstore::CGraphError error;
  ASSERT_TRUE(gstore::WriteCompressedGraph(path, graph, &error))
      << error.ToString();
  auto compressed = gstore::CompressedGraph::Open(path, {}, &error);
  ASSERT_NE(compressed, nullptr) << error.ToString();
  gstore::GraphView view = compressed->MakeView();

  CensusConfig config;
  config.max_edges = 5;
  config.max_degree = 40;
  util::MetricsRegistry registry;
  const CensusMetrics metrics = CensusMetrics::Register(registry, 5);
  CensusWorker csr_worker(graph, config, metrics);
  BasicCensusWorker<gstore::GraphView> cgraph_worker(view, config);
  util::Rng rng(123);
  int64_t total = 0;
  for (int sampled = 0; sampled < 128;) {
    const NodeId start =
        static_cast<NodeId>(rng.UniformInt(graph.num_nodes()));
    if (graph.degree(start) == 0) continue;
    ++sampled;
    CensusResult expected;
    CensusResult actual;
    csr_worker.Run(start, expected);
    cgraph_worker.Run(start, actual);
    ExpectIdenticalResults(expected, actual, "cgraph " + Describe(start, config));
    total += expected.total_subgraphs;
  }
  EXPECT_GT(total, 0);
  EXPECT_GT(registry.Snapshot().Counter("census.leaf_groups"), 0);
  compressed.reset();
  std::remove(path.c_str());
}

TEST(CensusDifferentialTest, CompressedDirectedGraphMatchesCsrAcrossModes) {
  util::Rng rng(86280201);
  const std::string path = ::testing::TempDir() + "census_diff_directed.hscg";
  for (int trial = 0; trial < 4; ++trial) {
    const NodeId num_nodes = 12 + 2 * trial;
    const int num_labels = 3;
    graph::DiGraphBuilder builder({"a", "b", "c"});
    for (NodeId v = 0; v < num_nodes; ++v) {
      builder.AddNode(static_cast<Label>(rng.UniformInt(num_labels)));
    }
    const double density = 2.2 / num_nodes;
    int arcs = 0;
    for (NodeId u = 0; u < num_nodes; ++u) {
      for (NodeId v = 0; v < num_nodes; ++v) {
        if (u != v && rng.Bernoulli(density)) {
          builder.AddArc(u, v);
          ++arcs;
        }
      }
    }
    if (arcs == 0) continue;
    DirectedHetGraph graph = std::move(builder).Build();

    gstore::CGraphWriterOptions woptions;
    woptions.block_target_entries = 4;
    gstore::CGraphError error;
    ASSERT_TRUE(gstore::WriteCompressedGraph(path, graph, &error, woptions))
        << error.ToString();
    gstore::CGraphOptions roptions;
    roptions.cache_bytes = 1;
    auto compressed = gstore::CompressedGraph::Open(path, roptions, &error);
    ASSERT_NE(compressed, nullptr) << error.ToString();
    ASSERT_TRUE(compressed->directed());
    gstore::DirectedGraphView view = compressed->MakeDirectedView();

    for (bool mask : {false, true}) {
      for (int dmax : {0, 3}) {
        for (bool group : {true, false}) {
          CensusConfig config;
          config.max_edges = 4;
          config.max_degree = dmax;
          config.mask_start_label = mask;
          config.group_by_label = group;
          config.mix_contributions = (trial % 2 == 0);
          config.keep_encodings = true;

          DirectedCensusWorker csr_worker(graph, config);
          BasicDirectedCensusWorker<gstore::DirectedGraphView> cgraph_worker(
              view, config);
          for (NodeId start : PickStarts(
                   num_nodes, [&](NodeId v) { return graph.total_degree(v); },
                   3)) {
            CensusResult expected;
            CensusResult actual;
            csr_worker.Run(start, expected);
            cgraph_worker.Run(start, actual);
            ExpectIdenticalResults(
                expected, actual, "cgraph-directed " + Describe(start, config));

            for (int64_t budget :
                 {int64_t{1}, expected.total_subgraphs / 2 + 1}) {
              if (expected.total_subgraphs < 2) break;
              CensusConfig truncated_config = config;
              truncated_config.max_subgraphs = budget;
              DirectedCensusWorker truncated_csr(graph, truncated_config);
              BasicDirectedCensusWorker<gstore::DirectedGraphView>
                  truncated_cgraph(view, truncated_config);
              CensusResult expected_truncated;
              CensusResult actual_truncated;
              truncated_csr.Run(start, expected_truncated);
              truncated_cgraph.Run(start, actual_truncated);
              ExpectIdenticalResults(
                  expected_truncated, actual_truncated,
                  "cgraph-directed " + Describe(start, truncated_config));
            }
          }
        }
      }
    }
  }
}

// --- Forced-ISA differential ------------------------------------------------
//
// The SIMD kernel layer (src/simd) claims bit-identity between its scalar
// reference and every vector level. simd_test pins the kernels in isolation;
// these tests pin the composition, where the census sorts each encoding it
// keeps with compare_bytes: a census run on the scalar ISA must equal a
// census run on the detected (best vector) kernels —
// same counts, same enumeration order (budget-probed), same encodings — for
// undirected and directed workers, over CSR and paged cgraph storage. On a
// machine (or HSGF_SIMD=OFF build) where only kScalar exists, both sides pin
// to scalar and the comparison degenerates to a self-check, which is fine.

// Restores the process-global dispatch level on scope exit so an ASSERT
// bailing out of a test cannot leave later tests pinned to scalar.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::IsaLevel level) : previous_(simd::ActiveIsa()) {
    simd::ForceIsa(level);
  }
  ~ScopedIsa() { simd::ForceIsa(previous_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  simd::IsaLevel previous_;
};

TEST(CensusDifferentialTest, ForcedScalarMatchesForcedVectorUndirected) {
  util::Rng rng(40620262);
  const std::string path = ::testing::TempDir() + "census_diff_isa.hscg";
  const simd::IsaLevel vector_level = simd::DetectedIsa();
  for (int trial = 0; trial < 3; ++trial) {
    const NodeId num_nodes = 14 + 3 * trial;
    const int num_labels = 3;
    std::vector<Label> labels(num_nodes);
    for (auto& l : labels) l = static_cast<Label>(rng.UniformInt(num_labels));
    std::vector<std::pair<NodeId, NodeId>> edges;
    const double density = 3.0 / num_nodes;
    for (NodeId u = 0; u < num_nodes; ++u) {
      for (NodeId v = u + 1; v < num_nodes; ++v) {
        if (rng.Bernoulli(density)) edges.emplace_back(u, v);
      }
    }
    if (edges.empty()) continue;
    HetGraph graph = MakeGraph({"a", "b", "c"}, labels, edges);

    gstore::CGraphWriterOptions woptions;
    woptions.block_target_entries = 4;
    gstore::CGraphError error;
    ASSERT_TRUE(gstore::WriteCompressedGraph(path, graph, &error, woptions))
        << error.ToString();
    gstore::CGraphOptions roptions;
    roptions.cache_bytes = 1;
    auto compressed = gstore::CompressedGraph::Open(path, roptions, &error);
    ASSERT_NE(compressed, nullptr) << error.ToString();
    gstore::GraphView view = compressed->MakeView();

    for (bool mask : {false, true}) {
      for (bool group : {true, false}) {
        CensusConfig config;
        config.max_edges = 4;
        config.mask_start_label = mask;
        config.group_by_label = group;
        config.mix_contributions = true;
        config.keep_encodings = true;

        for (NodeId start :
             PickStarts(num_nodes, [&](NodeId v) { return graph.degree(v); },
                        3)) {
          CensusResult scalar_csr, vector_csr, scalar_cg, vector_cg;
          {
            ScopedIsa pin(simd::IsaLevel::kScalar);
            CensusWorker worker(graph, config);
            worker.Run(start, scalar_csr);
            BasicCensusWorker<gstore::GraphView> cg_worker(view, config);
            cg_worker.Run(start, scalar_cg);
          }
          {
            ScopedIsa pin(vector_level);
            CensusWorker worker(graph, config);
            worker.Run(start, vector_csr);
            BasicCensusWorker<gstore::GraphView> cg_worker(view, config);
            cg_worker.Run(start, vector_cg);
          }
          const std::string context = std::string("isa csr ") +
                                      simd::IsaName(vector_level) + " " +
                                      Describe(start, config);
          ExpectIdenticalResults(scalar_csr, vector_csr, context);
          ExpectIdenticalResults(scalar_csr, scalar_cg, "isa cgraph scalar");
          ExpectIdenticalResults(scalar_csr, vector_cg, "isa cgraph vector");

          // Budget truncation probes enumeration order across ISA levels.
          if (scalar_csr.total_subgraphs < 2) continue;
          CensusConfig truncated_config = config;
          truncated_config.max_subgraphs = scalar_csr.total_subgraphs / 2 + 1;
          CensusResult scalar_t, vector_t;
          {
            ScopedIsa pin(simd::IsaLevel::kScalar);
            CensusWorker worker(graph, truncated_config);
            worker.Run(start, scalar_t);
          }
          {
            ScopedIsa pin(vector_level);
            CensusWorker worker(graph, truncated_config);
            worker.Run(start, vector_t);
          }
          ExpectIdenticalResults(scalar_t, vector_t,
                                 "isa truncated " +
                                     Describe(start, truncated_config));
        }
      }
    }
  }
}

TEST(CensusDifferentialTest, ForcedScalarMatchesForcedVectorDirected) {
  util::Rng rng(26260804);
  const simd::IsaLevel vector_level = simd::DetectedIsa();
  for (int trial = 0; trial < 3; ++trial) {
    const NodeId num_nodes = 12 + 2 * trial;
    const int num_labels = 3;
    graph::DiGraphBuilder builder({"a", "b", "c"});
    for (NodeId v = 0; v < num_nodes; ++v) {
      builder.AddNode(static_cast<Label>(rng.UniformInt(num_labels)));
    }
    const double density = 2.2 / num_nodes;
    int arcs = 0;
    for (NodeId u = 0; u < num_nodes; ++u) {
      for (NodeId v = 0; v < num_nodes; ++v) {
        if (u != v && rng.Bernoulli(density)) {
          builder.AddArc(u, v);
          ++arcs;
        }
      }
    }
    if (arcs == 0) continue;
    DirectedHetGraph graph = std::move(builder).Build();

    for (bool mask : {false, true}) {
      CensusConfig config;
      config.max_edges = 4;
      config.mask_start_label = mask;
      config.mix_contributions = true;
      config.keep_encodings = true;

      for (NodeId start : PickStarts(
               num_nodes, [&](NodeId v) { return graph.total_degree(v); },
               3)) {
        CensusResult scalar_result, vector_result;
        {
          ScopedIsa pin(simd::IsaLevel::kScalar);
          DirectedCensusWorker worker(graph, config);
          worker.Run(start, scalar_result);
        }
        {
          ScopedIsa pin(vector_level);
          DirectedCensusWorker worker(graph, config);
          worker.Run(start, vector_result);
        }
        ExpectIdenticalResults(scalar_result, vector_result,
                               "isa directed " + Describe(start, config));

        if (scalar_result.total_subgraphs < 2) continue;
        CensusConfig truncated_config = config;
        truncated_config.max_subgraphs =
            scalar_result.total_subgraphs / 2 + 1;
        CensusResult scalar_t, vector_t;
        {
          ScopedIsa pin(simd::IsaLevel::kScalar);
          DirectedCensusWorker worker(graph, truncated_config);
          worker.Run(start, scalar_t);
        }
        {
          ScopedIsa pin(vector_level);
          DirectedCensusWorker worker(graph, truncated_config);
          worker.Run(start, vector_t);
        }
        ExpectIdenticalResults(
            scalar_t, vector_t,
            "isa directed truncated " + Describe(start, truncated_config));
      }
    }
  }
}

}  // namespace
}  // namespace hsgf::core
