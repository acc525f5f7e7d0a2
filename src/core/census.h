#ifndef HSGF_CORE_CENSUS_H_
#define HSGF_CORE_CENSUS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/encoding.h"
#include "core/rolling_hash.h"
#include "graph/het_graph.h"
#include "util/check.h"
#include "util/flat_count_map.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stop_token.h"

namespace hsgf::core {

// Configuration of the rooted subgraph census (paper §3.2).
struct CensusConfig {
  // Maximum number of edges per subgraph (emax). The paper uses 6 for the
  // rank-prediction task and 5 for label prediction.
  int max_edges = 5;

  // Maximum degree constraint (dmax): nodes with degree > max_degree are
  // added to subgraphs but not expanded through ("Topological Optimization
  // Heuristic"). <= 0 means unlimited (the paper's dmax = ∞). The start node
  // is always expanded regardless (§4.3.5).
  int max_degree = 0;

  // Replace the start node's label with an artificial mask label during
  // encoding (§4.3.2) so the feature does not leak the node's own label in
  // label-prediction experiments. The mask label has index
  // graph.num_labels().
  bool mask_start_label = false;

  // Apply the paper's "Heterogeneous Optimization Heuristic": batch the
  // census-count increments of consecutive same-label new-node extensions
  // (one hash-map update per label group instead of one per neighbour).
  // One edge short of max_edges the census goes further and counts every
  // child's leaf subgraphs of such a run in one pass, one update per leaf
  // hash (DESIGN.md §Performance). Identical results either way; exposed
  // for the ablation benchmark. Undirected only: a directed census counts
  // one arc at a time, because a batched count would move its
  // budget-truncation points.
  bool group_by_label = true;

  // Pass each per-node linear hash contribution through a 64-bit finalizer
  // before summing. The paper's Eq. 5 sums the raw linear contributions,
  // which makes the subgraph hash a function of the multiset of edge label
  // pairs only — e.g. a monochrome triangle and a monochrome 4-node path
  // collide systematically. Mixing removes this failure mode at identical
  // asymptotic cost. Disable to study the unmixed variant.
  bool mix_contributions = true;

  // Safety budget: stop enumerating after this many subgraph occurrences
  // (0 = unlimited). Hub start nodes — which the dmax heuristic exempts —
  // can induce astronomically many subgraphs (the paper reports per-node
  // outliers of 2493 s, Table 3); the budget bounds the worst case and sets
  // CensusResult::truncated when it fires.
  int64_t max_subgraphs = 0;

  // Also materialize the canonical characteristic-sequence encoding the
  // first time each hash value is seen (needed to interpret features and to
  // build cross-node vocabularies; costs O(subgraph size) per *distinct*
  // encoding only).
  bool keep_encodings = false;

  uint64_t hash_seed = RollingHash::kDefaultSeed;
};

// Census output for one start node: the heterogeneous subgraph feature
// vector in sparse form (Eq. 4 counts keyed by encoding hash).
struct CensusResult {
  util::FlatCountMap counts;
  // Hash -> canonical encoding; populated iff keep_encodings.
  std::unordered_map<uint64_t, Encoding> encodings;
  int64_t total_subgraphs = 0;
  // True iff enumeration stopped early because max_subgraphs was reached.
  bool truncated = false;
  // True iff enumeration was interrupted by a StopToken (cancellation or
  // deadline); counts cover the subgraphs visited so far.
  bool stopped = false;
};

// Instrumentation hooks for the census hot loop. All ids default to
// kInvalidMetric (recording into them is a no-op), and a null registry
// disables instrumentation entirely; pass the struct returned by Register()
// to CensusWorker to light the counters up. Counter semantics are
// documented in DESIGN.md §Observability.
struct CensusMetrics {
  util::MetricsRegistry* registry = nullptr;
  // census.nodes — Run() invocations.
  util::MetricId nodes = util::kInvalidMetric;
  // census.subgraphs_total — subgraph occurrences enumerated.
  util::MetricId subgraphs_total = util::kInvalidMetric;
  // census.subgraphs.edges_<k> — occurrences with exactly k edges
  // (index k-1), k = 1..max_edges.
  std::vector<util::MetricId> subgraphs_by_edges;
  // census.distinct_encodings — per-node distinct hashes, summed over nodes.
  util::MetricId distinct_encodings = util::kInvalidMetric;
  // census.label_group_saved — count-map updates avoided by grouping
  // (§4.3.4): subgraphs counted minus count-map updates made, over grouped
  // runs and leaf groups alike.
  util::MetricId label_group_saved = util::kInvalidMetric;
  // census.leaf_groups — grouped runs, one edge short of max_edges, whose
  // children's leaf subgraphs were counted in one pass.
  util::MetricId leaf_groups = util::kInvalidMetric;
  // census.leaf_group_fallbacks — such runs that went child by child
  // instead, because their leaf subgraphs would reach max_subgraphs.
  util::MetricId leaf_group_fallbacks = util::kInvalidMetric;
  // census.dmax_blocked — frontier expansions suppressed by dmax (§4.3.5).
  util::MetricId dmax_blocked = util::kInvalidMetric;
  // census.encoding_materializations — canonical encodings built
  // (once per distinct hash when keep_encodings is set).
  util::MetricId encoding_materializations = util::kInvalidMetric;
  // census.budget_truncated_nodes — nodes whose census hit max_subgraphs.
  util::MetricId budget_truncated_nodes = util::kInvalidMetric;
  // census.stopped_nodes — nodes whose census a StopToken interrupted.
  util::MetricId stopped_nodes = util::kInvalidMetric;

  // Registers every census metric (idempotent by name) and returns the
  // filled-in hook struct. `max_edges` bounds the per-edge-count counters.
  static CensusMetrics Register(util::MetricsRegistry& registry,
                                int max_edges);
};

namespace census_internal {

// SplitMix64 finalizer; bijective on 64-bit values and the identity on 0,
// which the census relies on (census_test pins it): the empty subgraph and
// the start node before its first edge contribute 0 to the hash.
inline uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace census_internal

// The directed side of the census graph concept (see BasicCensusWorker).
template <typename G>
concept DirectedCensusGraph = requires(const G& graph, graph::NodeId v) {
  graph.successors(v);
  graph.predecessors(v);
  graph.total_degree(v);
};

// The dmax rule (CensusConfig::max_degree): true iff v's degree — its total
// degree on a directed graph — exceeds max_degree > 0, so a census adds v to
// subgraphs but never expands through it. The start node is exempt; callers
// apply that themselves. The census, the changed-edge distance table and the
// stream engine's dirty-root and crossing searches all test dmax here.
template <typename GraphT>
bool OverDmax(const GraphT& graph, graph::NodeId v, int max_degree) {
  if (max_degree <= 0) return false;
  if constexpr (DirectedCensusGraph<GraphT>) {
    return graph.total_degree(v) > max_degree;
  } else {
    return graph.degree(v) > max_degree;
  }
}

// The edges a filtered census counts through (BasicCensusWorker::
// RunThrough), with each node's distance to them on one undirected graph:
// the fewest edges a subgraph holding the node must add, expanding out of
// it, before it holds one of the edges. The search follows the census's own
// dmax rule — an edge joins a subgraph only through an endpoint that
// expands, and a node over dmax never expands — so a subgraph whose members
// are all farther than the edges it has left can never reach a changed
// edge, and the census may skip it. The start node's dmax exemption is not
// in the table; the worker adds it for its own start.
class ChangedEdges {
 public:
  // Distance of a node that no subgraph of max_edges edges takes to an edge.
  static constexpr int kFar = std::numeric_limits<int>::max();

  // `edges` are node pairs in either order; duplicates are dropped.
  template <typename GraphT>
    requires(!DirectedCensusGraph<GraphT>)
  ChangedEdges(const GraphT& graph,
               std::vector<std::pair<graph::NodeId, graph::NodeId>> edges,
               const CensusConfig& config);

  graph::NodeId num_nodes() const {
    return static_cast<graph::NodeId>(distance_.size());
  }

  // True iff {u, v} is one of the edges.
  bool Contains(graph::NodeId u, graph::NodeId v) const {
    if (u > v) std::swap(u, v);
    return std::binary_search(edges_.begin(), edges_.end(),
                              std::pair<graph::NodeId, graph::NodeId>{u, v});
  }

  // 1 for an endpoint that expands, d + 1 for an expanding neighbour of a
  // node at distance d, kFar past max_edges or for a node over dmax.
  int Distance(graph::NodeId v) const { return distance_[v]; }

 private:
  // Sorted, each pair with first < second.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges_;
  std::vector<int> distance_;
};

template <typename GraphT>
  requires(!DirectedCensusGraph<GraphT>)
ChangedEdges::ChangedEdges(
    const GraphT& graph,
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges,
    const CensusConfig& config)
    : edges_(std::move(edges)),
      distance_(static_cast<size_t>(graph.num_nodes()), kFar) {
  for (auto& [u, v] : edges_) {
    HSGF_CHECK(u >= 0 && v >= 0 && u < graph.num_nodes() &&
               v < graph.num_nodes() && u != v)
        << "changed edge (" << u << "," << v << ") is not an edge slot of a "
        << graph.num_nodes() << "-node graph";
    if (u > v) std::swap(u, v);
  }
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  const auto expands = [&](graph::NodeId v) {
    return !OverDmax(graph, v, config.max_degree);
  };
  std::vector<graph::NodeId> frontier;
  for (const auto& [u, v] : edges_) {
    for (const graph::NodeId x : {u, v}) {
      if (distance_[x] == kFar && expands(x)) {
        distance_[x] = 1;
        frontier.push_back(x);
      }
    }
  }
  std::vector<graph::NodeId> next;
  for (int d = 1; d < config.max_edges && !frontier.empty(); ++d) {
    next.clear();
    for (const graph::NodeId x : frontier) {
      for (const graph::NodeId y : graph.neighbors(x)) {
        if (distance_[y] != kFar || !expands(y)) continue;
        distance_[y] = d + 1;
        next.push_back(y);
      }
    }
    frontier.swap(next);
  }
}

// Enumerates all connected subgraphs (edge subsets; weakly connected arc
// subsets on a directed graph) of `graph` that contain a given start node
// and have 1..max_edges edges, counting them by encoding hash. Exact and
// duplicate-free: each qualifying edge subset is visited exactly once
// (ordered-extension enumeration with a forbidden-set discipline).
// Thread-safe for concurrent Run() calls on distinct workers; one worker
// holds O(V) scratch state and is reused across start nodes (paper: memory
// O(tV + E) for t threads).
//
// The graph is a template parameter, and the concept it models fixes the
// orientation at compile time. Both share num_nodes(), num_labels() and
// label(v), and every adjacency range is sorted by (label, id):
//   - undirected: degree(v), neighbors(v). Each node has one count
//     section, dmax reads degree(v), the hash uses the RollingHash powers
//     and an encoding block is [label, counts_1..L] (encoding.h).
//   - directed (DirectedCensusGraph): total_degree(v), successors(v),
//     predecessors(v). Each node has two count sections, in and out: dmax
//     reads total_degree(v), the hash uses two independent odd base
//     families (out-bases drawn first, from hash_seed ^ 0x5851f42d4c957f2d)
//     so antiparallel structure is told apart, and a block is
//     [label, in_1..in_L, out_1..out_L] (directed_census.h).
// Frontier, arena, hash bookkeeping, budget, StopToken, metrics and
// materialization are shared. Only the label-grouping scan is undirected:
// a directed census counts arcs one at a time, and the scan is compiled out
// of it.
//
// The worker consumes each adjacency range immediately and never holds one
// across another adjacency call, so graph types may invalidate the range on
// the next call (gstore::GraphView pages blocks in and out under this exact
// contract). Enumeration order — and therefore every output, including
// budget-truncation points — depends only on the adjacency sequences, not on
// the storage, which is what makes compressed-vs-CSR censuses bit-identical.
//
// Inner-loop layout: candidates live in a structure-of-arrays arena
// (cand_to_ / cand_label_) and segments carry their shared `from` endpoint
// and side, so the grouping scan reads one label and one epoch stamp per
// candidate, and the per-run hash terms are computed once at the run head
// and installed per child. One edge short of max_edges, a grouped run's
// children are not installed at all: CountLeafGroup counts their leaves.
template <typename GraphT>
class BasicCensusWorker {
 public:
  // `metrics` is optional instrumentation (see CensusMetrics); the worker
  // keeps a copy, so the hooks may be a temporary, but the registry they
  // point into must outlive the worker.
  BasicCensusWorker(const GraphT& graph, const CensusConfig& config,
                    CensusMetrics metrics = {});

  BasicCensusWorker(const BasicCensusWorker&) = delete;
  BasicCensusWorker& operator=(const BasicCensusWorker&) = delete;

  const CensusConfig& config() const { return config_; }

  // Runs the census rooted at `start`. The result is overwritten. `stop` is
  // polled (amortized over kStopCheckInterval enumeration steps) inside the
  // enumeration loop: when it fires, the census returns the partial counts
  // collected so far with result.stopped set.
  void Run(graph::NodeId start, CensusResult& result,
           util::StopToken stop = {});

  // Runs the census rooted at `start` like Run — same enumeration, dmax
  // exemption, mask label, hash and budget — but counts only the subgraphs
  // that hold at least one of `changed`'s edges, and skips every branch
  // whose members cannot reach one in the edges left. `changed` must have
  // been built on this worker's graph with its config. The stream engine
  // updates a maintained row by the difference of two such counts.
  void RunThrough(graph::NodeId start, const ChangedEdges& changed,
                  CensusResult& result)
    requires(!DirectedCensusGraph<GraphT>);

 private:
  static constexpr bool kDirected = DirectedCensusGraph<GraphT>;
  // Count sections per node: in and out, which are one and the same section
  // on an undirected graph.
  static constexpr int kSides = kDirected ? 2 : 1;
  static constexpr uint8_t kIn = 0;
  static constexpr uint8_t kOut = kSides - 1;

  // Half-open range of candidates in the SoA arena (cand_to_/cand_label_).
  // A recursion frame's candidate list is a sequence of segments: ranges
  // inherited from ancestor frames (shared, never copied) followed by the
  // frame's own frontier, which is the only part appended to the arena.
  // Every candidate in a segment shares the same in-subgraph endpoint and
  // side — frontiers are appended per joining node and side, and inherited
  // segments are sub-ranges — so both live here, not per candidate.
  struct Segment {
    size_t begin;
    size_t end;  // exclusive; segments are never empty
    graph::NodeId from;
    // The count section of `from` the candidate edges add to: kOut for arcs
    // from -> to, kIn for arcs to -> from.
    uint8_t side;
  };

  // Position inside a frame's segment list [seg, ...): `pos` indexes the
  // arena within seg_stack_[seg]. Normalized: seg == the frame's seg_end
  // means one-past-the-last candidate (pos is then 0).
  struct Cursor {
    size_t seg;
    size_t pos;
  };

  // Undo record for one applied edge. The apply installs precomputed
  // absolute values (hash, linear and mixed contributions); the unwind
  // restores the saved ones — exact by construction, no recomputation.
  struct EdgeUndo {
    graph::NodeId to;
    graph::NodeId added;  // `to` if it newly joined the subgraph, -1 if not
    uint64_t hash_before;
    uint64_t from_linear_before;
    uint64_t from_mixed_before;
    uint64_t to_linear_before;  // cycle-closing edges only
    uint64_t to_mixed_before;   // cycle-closing edges only
  };

  // The subgraph hash after adding one edge to the current subgraph, with
  // the absolute contributions of both endpoints that the apply installs.
  struct EdgeTerms {
    uint64_t hash_after;
    uint64_t from_linear_after;
    uint64_t from_mixed_after;
    uint64_t to_linear_after;
    uint64_t to_mixed_after;
  };

  // One head of a frame one edge short of max_edges, with its grouping run
  // (see ScanLeafRuns).
  struct LeafRun {
    Cursor head;
    int64_t length;  // candidates in the run
    int64_t rest;    // candidates from the head to the end of the frame
    EdgeTerms terms;  // of the head edge, in this frame
    graph::NodeId from;
    graph::Label label;
    bool is_new;  // the head adds a node (else it closes a cycle)
  };

  // Side of a segment; the constant kIn on an undirected graph, so the
  // undirected hot loop carries no side at run time.
  static uint8_t SideOf(const Segment& segment) {
    return kDirected ? segment.side : kIn;
  }
  // The other endpoint's section for an edge on `side`.
  static uint8_t Opposite(uint8_t side) { return kOut - side; }

  // The edge (from, to) on `side` as a (tail, head) pair: from -> to on the
  // out side, to -> from on the in side.
  static std::pair<graph::NodeId, graph::NodeId> Oriented(graph::NodeId from,
                                                          graph::NodeId to,
                                                          uint8_t side) {
    if (side == kOut) return {from, to};
    return {to, from};
  }

  // What a node labelled `a` adds to its linear contribution when it gains
  // a neighbour labelled `b` in count section `side`: b_a^(b+1) from that
  // section's base family.
  uint64_t Power(uint8_t side, graph::Label a, graph::Label b) const {
    const size_t n = static_cast<size_t>(num_effective_labels_);
    return power_[(side * n + a) * n + b];
  }

  // Effective label of a node (mask applied to the start node).
  graph::Label EffectiveLabel(graph::NodeId v) const;

  bool InSubgraph(graph::NodeId v) const { return node_epoch_[v] == epoch_; }

  uint64_t MixedContribution(graph::NodeId v) const;

  // Terms of adding edge (from, to) on `side` to the current subgraph; `to`
  // joins as a new node iff `to_is_new`, and is not read then (a new node's
  // contribution depends only on the side and the label pair).
  EdgeTerms TermsOf(graph::NodeId from, uint8_t side, graph::NodeId to,
                    graph::Label to_label, bool to_is_new) const {
    const size_t n = static_cast<size_t>(num_effective_labels_);
    const graph::Label la = EffectiveLabel(from);
    EdgeTerms terms;
    terms.from_linear_after =
        linear_contribution_[from] + Power(side, la, to_label);
    const uint64_t to_power = Power(Opposite(side), to_label, la);
    terms.to_linear_after =
        to_is_new ? to_power : linear_contribution_[to] + to_power;
    // The finalizations run inline: a new node's mixed contribution is a
    // pure (side, label pair) function served from mixed_power_.
    terms.from_mixed_after = config_.mix_contributions
                                 ? census_internal::Mix(terms.from_linear_after)
                                 : terms.from_linear_after;
    if (to_is_new) {
      terms.to_mixed_after = mixed_power_[(side * n + la) * n + to_label];
      HSGF_DCHECK_EQ(terms.to_mixed_after,
                     config_.mix_contributions
                         ? census_internal::Mix(terms.to_linear_after)
                         : terms.to_linear_after);
    } else {
      terms.to_mixed_after = config_.mix_contributions
                                 ? census_internal::Mix(terms.to_linear_after)
                                 : terms.to_linear_after;
    }
    terms.hash_after = current_hash_ - mixed_contribution_[from] +
                       terms.from_mixed_after + terms.to_mixed_after;
    if (!to_is_new) terms.hash_after -= mixed_contribution_[to];
    return terms;
  }

  // True iff the dmax heuristic forbids expanding through v.
  bool IsBlocked(graph::NodeId v) const {
    return v != start_ && OverDmax(graph_, v, config_.max_degree);
  }

  // Appends the frontier of newly-joined node `w` (or of the start node),
  // one segment per side that offers a candidate. Honours dmax.
  void AppendFrontierOf(graph::NodeId w);

  // Appends w's candidates among `adjacent` and pushes their segment:
  // edges to nodes outside the subgraph plus cycle-closing edges into
  // in-subgraph *blocked* nodes, which no one else offers.
  template <typename NeighborRange>
  void AppendSide(graph::NodeId w, uint8_t side,
                  const NeighborRange& adjacent);

  // Advances `c` one candidate forward within the frame whose segment list
  // ends at `seg_end`, hopping to the next segment when the current one is
  // exhausted.
  void Advance(Cursor& c, size_t seg_end) const {
    if (++c.pos >= seg_stack_[c.seg].end) {
      ++c.seg;
      c.pos = c.seg < seg_end ? seg_stack_[c.seg].begin : 0;
    }
  }

  // The label-grouping scan: advances `j` past the candidates that extend
  // `from` with a new node labelled `label`, and returns how many it passed.
  int64_t ExtendRun(Cursor& j, size_t seg_end, graph::NodeId from,
                    graph::Label label) const;

  // Whether frames one edge short of max_edges count each grouped run's
  // leaf subgraphs in one pass (CountLeafGroup). Not in a directed census,
  // which does not group; not in RunThrough, whose count depends on each
  // child's own edge; not without grouping; and not with keep_encodings,
  // because which encoding a colliding hash keeps depends on the order its
  // subgraphs are met in.
  template <bool kFiltered>
  bool CountsLeafGroups() const {
    return !kDirected && !kFiltered && config_.group_by_label &&
           !config_.keep_encodings;
  }

  // Fills leaf_runs_ with the heads and runs of the frame over
  // seg_stack_[seg_begin, seg_end), exactly as its loop will meet them.
  void ScanLeafRuns(size_t seg_begin, size_t seg_end);

  // Counts the leaf subgraphs of every child of the grouped run
  // leaf_runs_[index], in a frame at `depth` == max_edges - 2, without
  // applying one: the children differ only in which same-label node joined,
  // so each leaf hash is the same for all of them. Returns false, having
  // counted nothing, when the count would reach max_subgraphs; the children
  // then run one by one so truncation stops at the same subgraph. Either
  // way the group's work is charged to the StopToken countdown, so the head
  // loop polls as soon as a poll interval's worth of group work has passed.
  bool CountLeafGroup(size_t index, int depth, CensusResult& result)
    requires(!DirectedCensusGraph<GraphT>);

  // Run and RunThrough: kFiltered compiles the changed-edge filter in, so
  // Run's instantiation carries none of it.
  template <bool kFiltered>
  void Census(graph::NodeId start, CensusResult& result,
              util::StopToken stop);

  // Core recursion over the candidate segments seg_stack_[seg_begin,
  // seg_end). The frame's candidates are the concatenation of those
  // segments' arena ranges, in order — identical to the flat list the
  // old copy-based loop built, so the enumeration order (and therefore
  // budget truncation, grouping, and all output) is bit-identical.
  template <bool kFiltered>
  void Extend(size_t seg_begin, size_t seg_end, int depth,
              CensusResult& result);

  // A member's distance to the changed edges (RunThrough only).
  int DistanceOf(graph::NodeId v) const {
    return v == start_ ? start_distance_ : changed_->Distance(v);
  }

  // Builds the canonical encoding of the current subgraph from the edge
  // stack (rare: once per distinct hash). Reuses member scratch buffers.
  Encoding MaterializeEncoding();

  // How many enumeration steps may pass between StopToken polls; bounds
  // cancellation latency without putting a clock read in the hot loop.
  static constexpr int kStopCheckInterval = 1024;

  const GraphT& graph_;
  CensusConfig config_;
  CensusMetrics metrics_;
  int num_effective_labels_;

  // power_[(side * L + a) * L + b] == Power(side, a, b), L the effective
  // label count.
  std::vector<uint64_t> power_;
  // mixed_power_[(side * L + la) * L + lb] == the finalized hash
  // contribution of a node that just joined with label lb via an edge on
  // `side` of a label-la node: Mix(Power(Opposite(side), lb, la)) (raw
  // Power when mixing is off). A new node's post-join contribution depends
  // only on the side and label pair, so the head loop reads this table
  // instead of running the finalizer — that was one of the two Mix
  // evaluations per head, ~5% of census time.
  std::vector<uint64_t> mixed_power_;

  graph::NodeId start_ = -1;
  uint64_t epoch_ = 0;
  uint64_t current_hash_ = 0;

  util::StopToken stop_;
  bool has_stop_ = false;
  int stop_countdown_ = kStopCheckInterval;

  // Per-node scratch, epoch-stamped so Run() needs no O(V) clear.
  std::vector<uint64_t> node_epoch_;
  std::vector<uint64_t> linear_contribution_;  // Σ_i t_i b_v^i for in-subgraph nodes
  // Finalized (mixed) contribution cache: for every in-subgraph node v,
  // mixed_contribution_[v] == MixedContribution(v). Keeping it current costs
  // nothing extra — the apply path computes the mixed values anyway for the
  // run hash — and saves re-finalizing unchanged endpoints per run.
  std::vector<uint64_t> mixed_contribution_;

  // Structure-of-arrays candidate arena, one frontier run per frame:
  // cand_to_[i] is the outside (or cycle-closing) endpoint, cand_label_[i]
  // its label. Candidates never target the start node (the start is never a
  // frontier of anything — it is unblocked, so cycle-closers into it are
  // not emitted), so cand_label_ is the plain graph label even when the
  // start label is masked.
  std::vector<graph::NodeId> cand_to_;
  std::vector<graph::Label> cand_label_;
  std::vector<Segment> seg_stack_;  // per-frame segment lists, stack-shaped
  // Applied edges as (tail, head) pairs (see Oriented).
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edge_stack_;
  std::vector<EdgeUndo> undo_stack_;

  // Hot-loop instrumentation is accumulated into these plain per-worker
  // counters and flushed to the registry once per Run() (flush-on-Run
  // contract, DESIGN.md §Performance). The registry's sharded counters are
  // cheap but not free: a registry call per enumeration step costs a TLS
  // lookup plus two atomic accesses, multiplied across pool threads.
  struct BatchedCounters {
    int64_t subgraphs_total = 0;
    int64_t label_group_saved = 0;
    int64_t leaf_groups = 0;
    int64_t leaf_group_fallbacks = 0;
    int64_t dmax_blocked = 0;
    int64_t encoding_materializations = 0;
    std::vector<int64_t> subgraphs_by_edges;  // size config_.max_edges
  };
  BatchedCounters batch_;

  // Leaf-group scratch. Only one frame one edge short of max_edges is live
  // at a time, so one table serves them all. leaf_label_counts_ (per graph
  // label) is all zero between groups.
  std::vector<LeafRun> leaf_runs_;
  std::vector<int64_t> leaf_label_counts_;
  // (blocked member, cycle-closing edges into it from the siblings).
  std::vector<std::pair<graph::NodeId, int64_t>> leaf_cycle_closers_;

  // RunThrough state: the changed edges, the start node's distance to them
  // (its dmax exemption included), how many changed edges the current
  // subgraph holds, and per member, in joining order, the least distance of
  // any member up to it.
  const ChangedEdges* changed_ = nullptr;
  int start_distance_ = ChangedEdges::kFar;
  int changed_held_ = 0;
  std::vector<int> reach_stack_;

  // Scratch for MaterializeEncoding, member-owned so the per-distinct-
  // encoding path does not reallocate. Sized to the largest subgraph seen;
  // only the first |subgraph| entries are live per call.
  std::vector<graph::NodeId> scratch_nodes_;
  std::vector<std::vector<uint8_t>> scratch_blocks_;
};

// The census worker every undirected call site uses: the in-RAM CSR graph.
using CensusWorker = BasicCensusWorker<graph::HetGraph>;

// How an extraction session obtains a per-worker accessor for a graph type.
// The default binds the shared graph itself — HetGraph is immutable and safe
// to share across census threads. Graph types with per-thread paging state
// (gstore::CompressedGraph) specialize this so each worker gets a private
// view whose neighbors() spans may be invalidated by its own next call.
template <typename GraphT>
struct CensusAccess {
  using View = GraphT;
  static const GraphT& MakeView(const GraphT& graph) { return graph; }
};

// The one one-shot convenience: builds a throwaway worker, runs the census
// for a single node, and returns the result by value. Anything that runs
// more than one census should construct a CensusWorker and reuse it (worker
// construction is O(V)).
CensusResult RunCensus(const graph::HetGraph& graph, graph::NodeId start,
                       const CensusConfig& config);

// --- BasicCensusWorker implementation ---------------------------------------

template <typename GraphT>
BasicCensusWorker<GraphT>::BasicCensusWorker(const GraphT& graph,
                                             const CensusConfig& config,
                                             CensusMetrics metrics)
    : graph_(graph),
      config_(config),
      metrics_(std::move(metrics)),
      num_effective_labels_(graph.num_labels() +
                            (config.mask_start_label ? 1 : 0)),
      node_epoch_(graph.num_nodes(), 0),
      linear_contribution_(graph.num_nodes(), 0),
      mixed_contribution_(graph.num_nodes(), 0) {
  HSGF_CHECK_GE(config_.max_edges, 1) << "census needs at least one edge";
  // Tolerate hooks registered for a smaller emax: missing per-edge-count
  // counters become inert instead of out-of-bounds.
  if (metrics_.registry != nullptr) {
    metrics_.subgraphs_by_edges.resize(
        static_cast<size_t>(config_.max_edges), util::kInvalidMetric);
  }
  batch_.subgraphs_by_edges.assign(static_cast<size_t>(config_.max_edges), 0);
  leaf_label_counts_.assign(static_cast<size_t>(graph.num_labels()), 0);

  const size_t n = static_cast<size_t>(num_effective_labels_);
  power_.resize(kSides * n * n);
  if constexpr (kDirected) {
    // Odd bases keep the multiplicative order high modulo 2^64; the draw
    // order (all out-bases, then all in-bases) is part of the hash.
    uint64_t state = config_.hash_seed ^ 0x5851f42d4c957f2dULL;
    for (uint8_t side : {kOut, kIn}) {
      std::vector<uint64_t> bases(n);
      for (uint64_t& base : bases) base = util::SplitMix64(state) | 1ULL;
      for (size_t a = 0; a < n; ++a) {
        uint64_t p = bases[a];
        for (size_t b = 0; b < n; ++b, p *= bases[a]) {
          power_[(side * n + a) * n + b] = p;
        }
      }
    }
  } else {
    const RollingHash hasher(num_effective_labels_, config_.hash_seed);
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        power_[a * n + b] = hasher.Power(static_cast<graph::Label>(a),
                                         static_cast<graph::Label>(b));
      }
    }
  }
  mixed_power_.resize(kSides * n * n);
  for (uint8_t side = 0; side < kSides; ++side) {
    for (size_t la = 0; la < n; ++la) {
      for (size_t lb = 0; lb < n; ++lb) {
        const uint64_t p = Power(Opposite(side), static_cast<graph::Label>(lb),
                                 static_cast<graph::Label>(la));
        mixed_power_[(side * n + la) * n + lb] =
            config_.mix_contributions ? census_internal::Mix(p) : p;
      }
    }
  }
}

template <typename GraphT>
graph::Label BasicCensusWorker<GraphT>::EffectiveLabel(graph::NodeId v) const {
  if (config_.mask_start_label && v == start_) {
    return static_cast<graph::Label>(graph_.num_labels());
  }
  return graph_.label(v);
}

template <typename GraphT>
uint64_t BasicCensusWorker<GraphT>::MixedContribution(graph::NodeId v) const {
  uint64_t c = linear_contribution_[v];
  return config_.mix_contributions ? census_internal::Mix(c) : c;
}

template <typename GraphT>
void BasicCensusWorker<GraphT>::AppendFrontierOf(graph::NodeId w) {
  // Frontier candidates are only collected for nodes that just joined the
  // subgraph; expanding an outside node would enumerate disconnected sets.
  HSGF_DCHECK(InSubgraph(w)) << "frontier expansion of node " << w
                             << " outside the subgraph";
  // Topological heuristic (§3.2): hubs are added but never expanded through;
  // the start node is exempt (§4.3.5).
  if (IsBlocked(w)) {
    ++batch_.dmax_blocked;
    return;
  }
  if constexpr (kDirected) {
    AppendSide(w, kOut, graph_.successors(w));
    AppendSide(w, kIn, graph_.predecessors(w));
  } else {
    AppendSide(w, kIn, graph_.neighbors(w));
  }
}

template <typename GraphT>
template <typename NeighborRange>
void BasicCensusWorker<GraphT>::AppendSide(graph::NodeId w, uint8_t side,
                                           const NeighborRange& adjacent) {
  // Plain push_back append: resizing to the worst case up front and trimming
  // after (to skip the per-push capacity checks) was measured ~4% slower —
  // the two extra resize passes over the arena tail cost more than the
  // predictable capacity branches.
  const size_t begin = cand_to_.size();
  for (graph::NodeId y : adjacent) {
    // Edges back into the subgraph are normally offered by the other
    // endpoint when *it* joined — but blocked nodes never offer their
    // edges, so cycle-closing edges into an in-subgraph hub are offered
    // here. This keeps the enumerated set independent of candidate order
    // and duplicate-free. w's own discovery edge needs no exclusion: its
    // other endpoint offered a frontier, so it is not blocked.
    if (!InSubgraph(y) || IsBlocked(y)) {
      cand_to_.push_back(y);
      cand_label_.push_back(graph_.label(y));
    }
  }
  if (cand_to_.size() > begin) {
    seg_stack_.push_back({begin, cand_to_.size(), w, side});
  }
}

template <typename GraphT>
Encoding BasicCensusWorker<GraphT>::MaterializeEncoding() {
  // Collect the distinct nodes of the current subgraph (at most
  // max_edges + 1 of them) and recount labelled degrees from the edge stack.
  // Both scratch vectors are member-owned: only the first |subgraph| entries
  // are live, so repeated materializations allocate nothing once warm.
  scratch_nodes_.clear();
  for (const auto& [tail, head] : edge_stack_) {
    scratch_nodes_.push_back(tail);
    scratch_nodes_.push_back(head);
  }
  std::sort(scratch_nodes_.begin(), scratch_nodes_.end());
  scratch_nodes_.erase(
      std::unique(scratch_nodes_.begin(), scratch_nodes_.end()),
      scratch_nodes_.end());
  const size_t count = scratch_nodes_.size();

  // One block per node: [label, section kIn, section kOut], L counts each.
  const size_t n = static_cast<size_t>(num_effective_labels_);
  const size_t width = 1 + kSides * n;
  if (scratch_blocks_.size() < count) scratch_blocks_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    scratch_blocks_[i].assign(width, 0);
    scratch_blocks_[i][0] = EffectiveLabel(scratch_nodes_[i]);
  }
  auto index_of = [this](graph::NodeId v) {
    return static_cast<size_t>(
        std::lower_bound(scratch_nodes_.begin(), scratch_nodes_.end(), v) -
        scratch_nodes_.begin());
  };
  for (const auto& [tail, head] : edge_stack_) {
    ++scratch_blocks_[index_of(head)][1 + kIn * n + EffectiveLabel(tail)];
    ++scratch_blocks_[index_of(tail)][1 + kOut * n + EffectiveLabel(head)];
  }
  std::sort(scratch_blocks_.begin(), scratch_blocks_.begin() + count,
            DescendingBlockOrder);
  Encoding encoding;
  encoding.reserve(count * width);
  for (size_t i = 0; i < count; ++i) {
    encoding.insert(encoding.end(), scratch_blocks_[i].begin(),
                    scratch_blocks_[i].end());
  }
  return encoding;
}

template <typename GraphT>
template <bool kFiltered>
void BasicCensusWorker<GraphT>::Extend(size_t seg_begin, size_t seg_end,
                                       int depth, CensusResult& result) {
  HSGF_DCHECK_LE(seg_begin, seg_end);
  HSGF_DCHECK_LE(seg_end, seg_stack_.size());
  HSGF_DCHECK_LT(depth, config_.max_edges);
  HSGF_DCHECK_EQ(edge_stack_.size(), static_cast<size_t>(depth));
  // Leaf frames have no child-apply work to hide the count-table miss
  // under, so prefetching there is pure overhead; non-leaf frames issue the
  // prefetch before the grouping scan and the apply loop covers the
  // latency. (Deferring leaf Adds into a flush buffer was tried and
  // measured a ~7% pessimization — the extra store/reload traffic cost
  // more than the overlapped probes saved on this cache-resident table.)
  const bool leaf = depth + 1 >= config_.max_edges;
  // One edge short of max_edges, the frame scans its heads up front so each
  // grouped run can count its children's leaves against the rest of the
  // frame (CountLeafGroup); the loop then reads the heads from the table.
  const bool leaf_groups =
      CountsLeafGroups<kFiltered>() && depth + 2 == config_.max_edges;
  if (leaf_groups) ScanLeafRuns(seg_begin, seg_end);
  size_t head_index = 0;
  // Per-frame accumulators for the batched instrumentation counters: one
  // memory RMW per frame instead of three per head. result.total_subgraphs
  // is the exception — the budget check and child frames read it live.
  int64_t frame_subgraphs = 0;
  int64_t frame_saved = 0;
  HSGF_DCHECK_LT(static_cast<size_t>(depth), batch_.subgraphs_by_edges.size());
  auto commit_frame = [&] {
    batch_.subgraphs_total += frame_subgraphs;
    batch_.subgraphs_by_edges[depth] += frame_subgraphs;
    batch_.label_group_saved += frame_saved;
  };
  Cursor i{seg_begin, seg_begin < seg_end ? seg_stack_[seg_begin].begin : 0};
  while (i.seg < seg_end) {
    HSGF_DCHECK_LT(i.pos, seg_stack_[i.seg].end);
    if (config_.max_subgraphs > 0 &&
        result.total_subgraphs >= config_.max_subgraphs) {
      result.truncated = true;
      commit_frame();
      return;
    }
    if (has_stop_ && --stop_countdown_ <= 0) {
      stop_countdown_ = kStopCheckInterval;
      if (stop_.StopRequested()) {
        result.stopped = true;
        commit_frame();
        return;
      }
    }
    const graph::NodeId head_from = seg_stack_[i.seg].from;
    const uint8_t side = SideOf(seg_stack_[i.seg]);
    const graph::NodeId head_to = cand_to_[i.pos];
    const graph::Label head_label = cand_label_[i.pos];
    HSGF_DCHECK_EQ(head_label, EffectiveLabel(head_to));
    const bool head_is_new_node = !InSubgraph(head_to);

    // Hash of the subgraph after adding the head edge — identical for the
    // whole run (a new same-label node contributes the same label-determined
    // terms regardless of its id), so it is computed before the grouping
    // scan and the count-table slot prefetched: the table is the one
    // cache-missing access per head, and the scan is exactly the unrelated
    // work to hide that miss under.
    const EdgeTerms terms =
        leaf_groups ? leaf_runs_[head_index].terms
                    : TermsOf(head_from, side, head_to, head_label,
                              head_is_new_node);
    const uint64_t hash_after = terms.hash_after;
    if (!leaf) result.counts.Prefetch(hash_after);

    Cursor j = i;
    int64_t run = 1;
    if (leaf_groups) {
      HSGF_DCHECK(leaf_runs_[head_index].head.seg == i.seg &&
                  leaf_runs_[head_index].head.pos == i.pos);
      run = leaf_runs_[head_index].length;
      j = head_index + 1 < leaf_runs_.size() ? leaf_runs_[head_index + 1].head
                                             : Cursor{seg_end, 0};
    } else {
      Advance(j, seg_end);
      if constexpr (!kDirected) {
        if (head_is_new_node && config_.group_by_label) {
          run += ExtendRun(j, seg_end, head_from, head_label);
        }
      }
    }

    // A filtered census counts a subgraph only if it holds a changed edge:
    // the whole run when the current subgraph already does, else the run's
    // candidates whose own edge is changed (they share the run's hash). Only
    // an endpoint at distance 1 can offer a changed edge.
    const bool from_touches_changed = kFiltered && DistanceOf(head_from) == 1;
    int64_t counted = run;
    if constexpr (kFiltered) {
      if (changed_held_ == 0) {
        counted = 0;
        if (from_touches_changed) {
          for (Cursor k = i; k.seg != j.seg || k.pos != j.pos;
               Advance(k, seg_end)) {
            if (changed_->Contains(head_from, cand_to_[k.pos])) ++counted;
          }
        }
      }
    }
    if (!kFiltered || counted > 0) {
      result.counts.Add(hash_after, counted);
      result.total_subgraphs += counted;
      frame_subgraphs += counted;
      frame_saved += counted - 1;
      if (config_.keep_encodings && !result.encodings.contains(hash_after)) {
        edge_stack_.push_back(Oriented(head_from, head_to, side));
        result.encodings.emplace(hash_after, MaterializeEncoding());
        edge_stack_.pop_back();
        ++batch_.encoding_materializations;
      }
    }

    // A grouped run one edge short of max_edges counts its children's leaf
    // subgraphs in one pass; near the budget its children run one by one.
    bool children_counted = false;
    if constexpr (!kDirected) {
      if (leaf_groups && head_is_new_node) {
        children_counted = CountLeafGroup(head_index, depth, result);
      }
    }
    ++head_index;

    if (!leaf && !children_counted) {
      for (Cursor k = i; k.seg != j.seg || k.pos != j.pos;
           Advance(k, seg_end)) {
        if (result.truncated || result.stopped) {
          commit_frame();
          return;
        }
        const graph::NodeId to = cand_to_[k.pos];
        bool changed_edge = false;
        if constexpr (kFiltered) {
          changed_edge =
              from_touches_changed && changed_->Contains(head_from, to);
          if (changed_held_ == 0 && !changed_edge) {
            // Prune: no member of the child is near enough a changed edge
            // to reach one in the edges it has left.
            int reach = reach_stack_.back();
            if (head_is_new_node) {
              reach = std::min(reach, changed_->Distance(to));
            }
            if (reach > config_.max_edges - (depth + 1)) continue;
          }
        }
        // Apply edge (head_from, to): every hash term was precomputed for
        // the run head and holds for each child (for a grouped run all
        // children are new nodes of the head's label; a cycle-closing head
        // is always a run of one).
        HSGF_DCHECK(InSubgraph(head_from))
            << "candidate edge " << head_from << "->" << to
            << " does not touch the subgraph";
        HSGF_DCHECK(head_is_new_node ? !InSubgraph(to) : to == head_to);
        undo_stack_.push_back({to, head_is_new_node ? to : graph::NodeId{-1},
                               current_hash_,
                               linear_contribution_[head_from],
                               mixed_contribution_[head_from],
                               head_is_new_node ? 0 : linear_contribution_[to],
                               head_is_new_node ? 0 : mixed_contribution_[to]});
        linear_contribution_[head_from] = terms.from_linear_after;
        mixed_contribution_[head_from] = terms.from_mixed_after;
        linear_contribution_[to] = terms.to_linear_after;
        mixed_contribution_[to] = terms.to_mixed_after;
        current_hash_ = hash_after;
        if (head_is_new_node) node_epoch_[to] = epoch_;
        if constexpr (kFiltered) {
          changed_held_ += changed_edge ? 1 : 0;
          if (head_is_new_node) {
            reach_stack_.push_back(
                std::min(reach_stack_.back(), changed_->Distance(to)));
          }
        }
        edge_stack_.push_back(Oriented(head_from, to, side));
        // The child's candidate list: the rest of k's segment, the
        // remaining ancestor segments, then the child's own frontier —
        // all by reference except the frontier. Ancestor arena ranges
        // stay valid because descendants only append past them and always
        // resize back on unwind.
        const size_t child_seg_begin = seg_stack_.size();
        if (k.pos + 1 < seg_stack_[k.seg].end) {
          Segment rest = seg_stack_[k.seg];
          rest.begin = k.pos + 1;
          seg_stack_.push_back(rest);
        }
        for (size_t s = k.seg + 1; s < seg_end; ++s) {
          const Segment inherited = seg_stack_[s];
          seg_stack_.push_back(inherited);
        }
        const size_t child_arena_begin = cand_to_.size();
        if (head_is_new_node) AppendFrontierOf(to);
        Extend<kFiltered>(child_seg_begin, seg_stack_.size(), depth + 1,
                          result);
        seg_stack_.resize(child_seg_begin);
        cand_to_.resize(child_arena_begin);
        cand_label_.resize(child_arena_begin);
        edge_stack_.pop_back();
        // Unapply: absolute restores from the undo record.
        const EdgeUndo& undo = undo_stack_.back();
        current_hash_ = undo.hash_before;
        linear_contribution_[head_from] = undo.from_linear_before;
        mixed_contribution_[head_from] = undo.from_mixed_before;
        if (undo.added != -1) {
          node_epoch_[to] = 0;  // leave the subgraph
        } else {
          linear_contribution_[to] = undo.to_linear_before;
          mixed_contribution_[to] = undo.to_mixed_before;
        }
        undo_stack_.pop_back();
        if constexpr (kFiltered) {
          changed_held_ -= changed_edge ? 1 : 0;
          if (head_is_new_node) reach_stack_.pop_back();
        }
      }
    }
    i = j;
  }
  commit_frame();
}

template <typename GraphT>
int64_t BasicCensusWorker<GraphT>::ExtendRun(Cursor& j, size_t seg_end,
                                             graph::NodeId from,
                                             graph::Label label) const {
  // Heterogeneous optimization heuristic: consecutive candidates that extend
  // the same subgraph node with a *new* neighbour of the same label all
  // produce the same encoding (and hash), so their count is batched.
  int64_t passed = 0;
  while (j.seg < seg_end && seg_stack_[j.seg].from == from) {
    const Segment& seg = seg_stack_[j.seg];
    const size_t begin = j.pos;
    while (j.pos < seg.end && cand_label_[j.pos] == label &&
           !InSubgraph(cand_to_[j.pos])) {
      ++j.pos;
    }
    passed += static_cast<int64_t>(j.pos - begin);
    if (j.pos < seg.end) break;
    ++j.seg;
    j.pos = j.seg < seg_end ? seg_stack_[j.seg].begin : 0;
  }
  return passed;
}

template <typename GraphT>
void BasicCensusWorker<GraphT>::ScanLeafRuns(size_t seg_begin,
                                             size_t seg_end) {
  leaf_runs_.clear();
  Cursor i{seg_begin, seg_begin < seg_end ? seg_stack_[seg_begin].begin : 0};
  while (i.seg < seg_end) {
    LeafRun head;
    head.head = i;
    head.from = seg_stack_[i.seg].from;
    head.label = cand_label_[i.pos];
    head.is_new = !InSubgraph(cand_to_[i.pos]);
    head.terms =
        TermsOf(head.from, kIn, cand_to_[i.pos], head.label, head.is_new);
    Advance(i, seg_end);
    head.length = 1;
    if (head.is_new) head.length += ExtendRun(i, seg_end, head.from, head.label);
    leaf_runs_.push_back(head);
  }
  int64_t rest = 0;
  for (auto it = leaf_runs_.rbegin(); it != leaf_runs_.rend(); ++it) {
    rest += it->length;
    it->rest = rest;
  }
}

template <typename GraphT>
bool BasicCensusWorker<GraphT>::CountLeafGroup(size_t index, int depth,
                                               CensusResult& result)
  requires(!DirectedCensusGraph<GraphT>)
{
  HSGF_DCHECK_EQ(depth + 2, config_.max_edges);
  const LeafRun& group = leaf_runs_[index];
  const graph::NodeId f0 = group.from;
  const graph::Label label = group.label;
  const int64_t r = group.length;
  // The siblings: the run's candidates, one stretch of one label in f0's
  // adjacency, so ascending by id. (Undirected segments of one frame have
  // distinct `from`s, so a run never spans two.) Nothing below appends to
  // the arena, so the span stays valid.
  HSGF_DCHECK_LE(group.head.pos + static_cast<size_t>(r),
                 seg_stack_[group.head.seg].end);
  const std::span<const graph::NodeId> siblings(
      cand_to_.data() + group.head.pos, static_cast<size_t>(r));
  HSGF_DCHECK(std::is_sorted(siblings.begin(), siblings.end()));

  // (C) Each sibling's own frontier, as AppendFrontierOf would build it in
  // its child: every non-member neighbour (other siblings included) by
  // label, plus the cycle-closing edges into blocked members.
  int64_t frontier = 0;
  int64_t blocked = 0;
  // The group's work in head-loop steps: one per sibling, per adjacency
  // entry read and per later head of the frame. Charged to the StopToken
  // countdown (capped, so one large group brings the next poll forward
  // without wrapping it).
  int64_t work = r + static_cast<int64_t>(leaf_runs_.size() - index);
  leaf_cycle_closers_.clear();
  for (const graph::NodeId s : siblings) {
    if (IsBlocked(s)) {
      ++blocked;
      continue;
    }
    const auto adjacency = graph_.neighbors(s);
    work += static_cast<int64_t>(adjacency.size());
    for (const graph::NodeId y : adjacency) {
      if (!InSubgraph(y)) {
        ++leaf_label_counts_[graph_.label(y)];
        ++frontier;
      } else if (IsBlocked(y)) {
        auto it = std::find_if(
            leaf_cycle_closers_.begin(), leaf_cycle_closers_.end(),
            [y](const auto& closer) { return closer.first == y; });
        if (it == leaf_cycle_closers_.end()) {
          leaf_cycle_closers_.emplace_back(y, 1);
        } else {
          ++it->second;
        }
        ++frontier;
      }
    }
  }
  // Every child counts the siblings after it (A), the rest of the frame
  // (B) and its own frontier (C).
  const int64_t rest = group.rest - r;
  const int64_t total = r * (r - 1) / 2 + r * rest + frontier;
  if (has_stop_) {
    stop_countdown_ -=
        static_cast<int>(std::min<int64_t>(work, kStopCheckInterval));
  }
  if (config_.max_subgraphs > 0 &&
      result.total_subgraphs + total >= config_.max_subgraphs) {
    std::fill(leaf_label_counts_.begin(), leaf_label_counts_.end(), 0);
    ++batch_.leaf_group_fallbacks;
    return false;
  }

  // Install the state every child shares — the hash after the run's edge
  // and f0's contribution after it — and one sibling's contribution as the
  // stand-in for all of them; TermsOf then gives each leaf hash.
  const uint64_t frame_hash = current_hash_;
  const uint64_t f0_linear = linear_contribution_[f0];
  const uint64_t f0_mixed = mixed_contribution_[f0];
  const graph::NodeId s0 = siblings.front();
  current_hash_ = group.terms.hash_after;
  linear_contribution_[f0] = group.terms.from_linear_after;
  mixed_contribution_[f0] = group.terms.from_mixed_after;
  linear_contribution_[s0] = group.terms.to_linear_after;
  mixed_contribution_[s0] = group.terms.to_mixed_after;

  int64_t updates = 0;
  auto add = [&](uint64_t hash, int64_t count) {
    if (count == 0) return;
    result.counts.Add(hash, count);
    ++updates;
  };
  // (A) Child k's candidates start with the r - 1 - k siblings after it.
  add(TermsOf(f0, kIn, -1, label, true).hash_after, r * (r - 1) / 2);
  // (B) Every later head of this frame, in each of the r children. A head
  // from another member keeps its hash step; one from f0 is re-derived,
  // because f0's contribution changed.
  for (size_t u = index + 1; u < leaf_runs_.size(); ++u) {
    const LeafRun& head = leaf_runs_[u];
    int64_t count = r * head.length;
    if (head.from == f0) {
      add(TermsOf(f0, kIn, cand_to_[head.head.pos], head.label, head.is_new)
              .hash_after,
          count);
      continue;
    }
    if (head.is_new && head.label == label) {
      // A sibling inside the run is, in its own child, a member: that one
      // edge closes a cycle there instead of adding a node.
      const graph::NodeId* run_begin = cand_to_.data() + head.head.pos;
      const graph::NodeId* run_end = run_begin + head.length;
      int64_t hits = 0;
      for (const graph::NodeId s : siblings) {
        run_begin = std::lower_bound(run_begin, run_end, s);
        if (run_begin == run_end) break;
        if (*run_begin == s) ++hits;
      }
      add(TermsOf(head.from, kIn, s0, label, false).hash_after, hits);
      count -= hits;
    }
    add(current_hash_ + (head.terms.hash_after - frame_hash), count);
  }
  // (C) The siblings' frontiers, pooled: a sibling's contribution in its
  // own child is the same for all of them.
  for (size_t l = 0; l < leaf_label_counts_.size(); ++l) {
    if (leaf_label_counts_[l] == 0) continue;
    add(TermsOf(s0, kIn, -1, static_cast<graph::Label>(l), true).hash_after,
        leaf_label_counts_[l]);
    leaf_label_counts_[l] = 0;
  }
  for (const auto& [y, count] : leaf_cycle_closers_) {
    add(TermsOf(s0, kIn, y, graph_.label(y), false).hash_after, count);
  }

  current_hash_ = frame_hash;
  linear_contribution_[f0] = f0_linear;
  mixed_contribution_[f0] = f0_mixed;
  result.total_subgraphs += total;
  batch_.subgraphs_total += total;
  batch_.subgraphs_by_edges[depth + 1] += total;
  batch_.label_group_saved += total - updates;
  batch_.dmax_blocked += blocked;
  ++batch_.leaf_groups;
  return true;
}

template <typename GraphT>
void BasicCensusWorker<GraphT>::Run(graph::NodeId start, CensusResult& result,
                                    util::StopToken stop) {
  Census<false>(start, result, std::move(stop));
}

template <typename GraphT>
void BasicCensusWorker<GraphT>::RunThrough(graph::NodeId start,
                                           const ChangedEdges& changed,
                                           CensusResult& result)
  requires(!DirectedCensusGraph<GraphT>)
{
  HSGF_CHECK_EQ(changed.num_nodes(), graph_.num_nodes())
      << "changed edges were built on another graph";
  changed_ = &changed;
  Census<true>(start, result, {});
  changed_ = nullptr;
}

template <typename GraphT>
template <bool kFiltered>
void BasicCensusWorker<GraphT>::Census(graph::NodeId start,
                                       CensusResult& result,
                                       util::StopToken stop) {
  HSGF_CHECK(start >= 0 && start < graph_.num_nodes())
      << "census start node " << start << " outside [0, "
      << graph_.num_nodes() << ")";
  result.counts.Clear();
  result.encodings.clear();
  result.total_subgraphs = 0;
  result.truncated = false;
  result.stopped = false;

  stop_ = std::move(stop);
  has_stop_ = stop_.CanStop();
  stop_countdown_ = kStopCheckInterval;
  if (has_stop_ && stop_.StopRequested()) {
    result.stopped = true;
  } else {
    start_ = start;
    ++epoch_;
    node_epoch_[start] = epoch_;
    linear_contribution_[start] = 0;
    mixed_contribution_[start] = MixedContribution(start);  // Mix(0) == 0
    current_hash_ = mixed_contribution_[start];
    cand_to_.clear();
    cand_label_.clear();
    seg_stack_.clear();
    edge_stack_.clear();
    undo_stack_.clear();
    if constexpr (kFiltered) {
      // The start expands whatever its degree, so its distance is its own:
      // 1 on a changed edge, else one more than its nearest neighbour's.
      start_distance_ = changed_->Distance(start);
      for (const graph::NodeId y : graph_.neighbors(start)) {
        if (changed_->Contains(start, y)) {
          start_distance_ = 1;
          break;
        }
        const int d = changed_->Distance(y);
        if (d != ChangedEdges::kFar) {
          start_distance_ = std::min(start_distance_, d + 1);
        }
      }
      reach_stack_.assign(1, start_distance_);
      changed_held_ = 0;
    }
    // The start node is never blocked, so it is always expanded — unless a
    // filtered census has nothing within reach to count.
    if (!kFiltered || start_distance_ <= config_.max_edges) {
      AppendFrontierOf(start);
    }
    const size_t root_segments = seg_stack_.size();
    Extend<kFiltered>(0, root_segments, 0, result);
    // The enumeration must unwind completely — even on truncation or stop —
    // or the epoch-stamped scratch poisons the next Run() on this worker.
    HSGF_DCHECK(edge_stack_.empty())
        << edge_stack_.size() << " edges left on the stack after unwind";
    HSGF_DCHECK(undo_stack_.empty())
        << undo_stack_.size() << " undo records left after unwind";
    HSGF_DCHECK_EQ(seg_stack_.size(), root_segments)
        << "segment stack not unwound to the root frame";
    HSGF_DCHECK_EQ(linear_contribution_[start], uint64_t{0})
        << "start-node hash contribution not restored";
    HSGF_DCHECK_EQ(current_hash_, MixedContribution(start))
        << "rolling hash did not return to the empty-subgraph state";
    HSGF_DCHECK(!kFiltered ||
                (changed_held_ == 0 && reach_stack_.size() == 1))
        << "changed-edge bookkeeping not unwound";
    node_epoch_[start] = 0;
  }

  // Flush-on-Run: the hot loop accumulated into batch_; the registry sees
  // one Increment per counter per census instead of one per enumeration
  // step. Snapshots taken mid-extraction therefore lag by at most the
  // in-flight nodes' counts.
  if (metrics_.registry != nullptr) {
    util::MetricsRegistry* registry = metrics_.registry;
    registry->Increment(metrics_.nodes);
    registry->Increment(metrics_.distinct_encodings,
                        static_cast<int64_t>(result.counts.size()));
    if (batch_.subgraphs_total != 0) {
      registry->Increment(metrics_.subgraphs_total, batch_.subgraphs_total);
    }
    for (size_t k = 0; k < batch_.subgraphs_by_edges.size(); ++k) {
      if (batch_.subgraphs_by_edges[k] != 0) {
        registry->Increment(metrics_.subgraphs_by_edges[k],
                            batch_.subgraphs_by_edges[k]);
      }
    }
    if (batch_.label_group_saved != 0) {
      registry->Increment(metrics_.label_group_saved,
                          batch_.label_group_saved);
    }
    if (batch_.leaf_groups != 0) {
      registry->Increment(metrics_.leaf_groups, batch_.leaf_groups);
    }
    if (batch_.leaf_group_fallbacks != 0) {
      registry->Increment(metrics_.leaf_group_fallbacks,
                          batch_.leaf_group_fallbacks);
    }
    if (batch_.dmax_blocked != 0) {
      registry->Increment(metrics_.dmax_blocked, batch_.dmax_blocked);
    }
    if (batch_.encoding_materializations != 0) {
      registry->Increment(metrics_.encoding_materializations,
                          batch_.encoding_materializations);
    }
    if (result.truncated) {
      registry->Increment(metrics_.budget_truncated_nodes);
    }
    if (result.stopped) registry->Increment(metrics_.stopped_nodes);
  }
  batch_.subgraphs_total = 0;
  batch_.label_group_saved = 0;
  batch_.leaf_groups = 0;
  batch_.leaf_group_fallbacks = 0;
  batch_.dmax_blocked = 0;
  batch_.encoding_materializations = 0;
  std::fill(batch_.subgraphs_by_edges.begin(),
            batch_.subgraphs_by_edges.end(), 0);
}

// The CSR instantiation every in-RAM call site links against lives in
// census.cc; this keeps its -O2 codegen (and therefore the published bench
// trajectory) in one translation unit.
extern template class BasicCensusWorker<graph::HetGraph>;

}  // namespace hsgf::core

#endif  // HSGF_CORE_CENSUS_H_
