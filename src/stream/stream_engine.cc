#include "stream/stream_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "stream/dirty_tracker.h"
#include "util/check.h"
#include "util/timer.h"

namespace hsgf::stream {

namespace {

double Transform(int64_t count, bool log1p_transform) {
  // Must match the snapshot/serve read path exactly (bit-identical serving).
  return log1p_transform ? std::log1p(static_cast<double>(count))
                         : static_cast<double>(count);
}

using Edge = std::pair<graph::NodeId, graph::NodeId>;

// A census result's (hash, count) pairs, ascending by hash.
std::vector<std::pair<uint64_t, int64_t>> SortedCounts(
    const core::CensusResult& census) {
  std::vector<std::pair<uint64_t, int64_t>> by_hash;
  by_hash.reserve(census.counts.size());
  census.counts.ForEach([&by_hash](uint64_t hash, int64_t count) {
    by_hash.emplace_back(hash, count);
  });
  std::sort(by_hash.begin(), by_hash.end());
  return by_hash;
}

// The edges a batch changed on net, as (u < v) pairs: present before it and
// absent after it (removed), or the other way round (added). An edge added
// and removed again within one batch is in neither.
struct NetChange {
  std::vector<Edge> removed;
  std::vector<Edge> added;
};

NetChange NetEdgeChange(const graph::HetGraph& pre, const graph::HetGraph& post,
                        std::span<const DeltaOp> ops) {
  std::vector<Edge> touched;
  for (const DeltaOp& op : ops) {
    if (op.kind == DeltaKind::kAddNode || op.u == op.v || op.u < 0 ||
        op.v < 0 || op.u >= post.num_nodes() || op.v >= post.num_nodes()) {
      continue;
    }
    touched.emplace_back(std::min(op.u, op.v), std::max(op.u, op.v));
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const auto has = [](const graph::HetGraph& g, const Edge& e) {
    return e.second < g.num_nodes() && g.HasEdge(e.first, e.second);
  };
  NetChange change;
  for (const Edge& edge : touched) {
    const bool before = has(pre, edge);
    const bool after = has(post, edge);
    if (before && !after) change.removed.push_back(edge);
    if (!before && after) change.added.push_back(edge);
  }
  return change;
}

// Roots whose rows a dmax crossing may change, ascending: those the dirty-
// root search reaches, on the pre- or the post-batch graph, from a node
// whose degree crossed max_degree. Such a node is admitted to subsets on one
// side as an expanding node and on the other as a blocked one, so subsets
// that hold no changed edge can still enter or leave a row. A node the batch
// added has no pre-batch subsets, so all of its subsets hold an added edge.
std::vector<graph::NodeId> CrossingRoots(const graph::HetGraph& pre,
                                         const graph::HetGraph& post,
                                         const NetChange& change,
                                         const core::CensusConfig& config) {
  const int dmax = config.max_degree;
  std::vector<graph::NodeId> crossed;
  for (const std::vector<Edge>* edges : {&change.removed, &change.added}) {
    for (const auto& [u, v] : *edges) {
      for (const graph::NodeId x : {u, v}) {
        if (x < pre.num_nodes() &&
            core::OverDmax(pre, x, dmax) != core::OverDmax(post, x, dmax)) {
          crossed.push_back(x);
        }
      }
    }
  }
  if (crossed.empty()) return {};
  std::vector<graph::NodeId> roots =
      CollectDirtyRoots(pre, crossed, config.max_edges, dmax);
  const std::vector<graph::NodeId> post_roots =
      CollectDirtyRoots(post, crossed, config.max_edges, dmax);
  roots.insert(roots.end(), post_roots.begin(), post_roots.end());
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

// Why a dirty root was re-censused in full (stream.full_census_roots.*).
enum FullCensusReason { kFirstTouch, kDmaxCrossing, kBudget, kNumReasons };

}  // namespace

StreamEngine::StreamEngine(graph::HetGraph base, StreamEngineConfig config)
    : config_(std::move(config)), graph_(std::move(base)) {
  // The engine's census always runs one root at a time on a materialized
  // CSR; keep_encodings would only bloat the per-root results.
  config_.census.keep_encodings = false;
  graph_.Materialize();
}

void StreamEngine::AttachMetrics(util::MetricsRegistry* registry) {
  util::WriterMutexLock lock(mutex_);
  metrics_ = Metrics();
  if (registry == nullptr) return;
  metrics_.registry = registry;
  metrics_.batches = registry->Counter("stream.batches");
  metrics_.dirty_roots = registry->Counter("stream.dirty_roots");
  metrics_.delta_roots = registry->Counter("stream.delta_roots");
  metrics_.first_touch =
      registry->Counter("stream.full_census_roots.first_touch");
  metrics_.dmax_crossing =
      registry->Counter("stream.full_census_roots.dmax_crossing");
  metrics_.budget = registry->Counter("stream.full_census_roots.budget");
  metrics_.apply_micros = registry->Histogram("stream.apply_batch_micros");
}

void StreamEngine::SeedVocabulary(std::span<const uint64_t> hashes) {
  util::WriterMutexLock lock(mutex_);
  HSGF_CHECK_EQ(epoch_, 0u) << "SeedVocabulary after updates were applied";
  HSGF_CHECK(hashes_.empty()) << "vocabulary already seeded";
  hashes_.reserve(hashes.size());
  for (const uint64_t hash : hashes) {
    const auto [it, inserted] =
        column_of_.emplace(hash, static_cast<uint32_t>(hashes_.size()));
    HSGF_CHECK(inserted) << "duplicate hash in seed vocabulary";
    hashes_.push_back(hash);
  }
}

uint32_t StreamEngine::InternColumn(uint64_t hash) {
  const auto [it, inserted] =
      column_of_.emplace(hash, static_cast<uint32_t>(hashes_.size()));
  if (inserted) hashes_.push_back(hash);
  return it->second;
}

void StreamEngine::StoreRow(graph::NodeId root,
                            const core::CensusResult& census) {
  SparseRow row;
  row.reserve(census.counts.size());
  for (const auto& [hash, count] : SortedCounts(census)) {
    row.emplace_back(InternColumn(hash), count);
  }
  std::sort(row.begin(), row.end());
  rows_[root] = std::move(row);
}

void StreamEngine::MergeDelta(const core::CensusResult& removed,
                              const core::CensusResult& added,
                              SparseRow& row) {
  // Hashes new to the vocabulary come only from `added` (a removed subset
  // was counted in the row, so its hash has a column), and all of them stay
  // in the row: interning them ascending is what a full census would do.
  SparseRow change;
  change.reserve(added.counts.size() + removed.counts.size());
  for (const auto& [hash, count] : SortedCounts(added)) {
    change.emplace_back(InternColumn(hash), count);
  }
  for (const auto& [hash, count] : SortedCounts(removed)) {
    const auto it = column_of_.find(hash);
    HSGF_CHECK(it != column_of_.end())
        << "a removed subgraph's hash has no column";
    change.emplace_back(it->second, -count);
  }
  std::sort(change.begin(), change.end());
  SparseRow merged;
  merged.reserve(row.size() + change.size());
  auto old = row.begin();
  for (size_t c = 0; c < change.size();) {
    const uint32_t column = change[c].first;
    int64_t count = 0;
    for (; c < change.size() && change[c].first == column; ++c) {
      count += change[c].second;
    }
    for (; old != row.end() && old->first < column; ++old) {
      merged.push_back(*old);
    }
    if (old != row.end() && old->first == column) {
      count += old->second;
      ++old;
    }
    HSGF_CHECK_GE(count, 0) << "delta took column " << column
                            << " below zero";
    if (count != 0) merged.emplace_back(column, count);
  }
  merged.insert(merged.end(), old, row.end());
  row = std::move(merged);
}

StreamEngine::ApplyResult StreamEngine::ApplyBatch(
    std::span<const DeltaOp> ops) {
  util::WriterMutexLock lock(mutex_);
  const util::Stopwatch watch;
  ApplyResult result;

  const int max_edges = config_.census.max_edges;
  const int max_degree = config_.census.max_degree;

  // Pass 1: dirty roots reachable in the PRE-mutation graph (with its
  // degrees) from every endpoint a batch op proposes to touch. Which ops
  // will be accepted is not yet known, so this uses the superset of all
  // endpoints that exist pre-mutation — sound, at worst a few extra roots.
  std::vector<graph::NodeId> pre_sources;
  for (const DeltaOp& op : ops) {
    if (op.kind == DeltaKind::kAddNode) continue;
    for (const graph::NodeId endpoint : {op.u, op.v}) {
      if (endpoint >= 0 && endpoint < graph_.num_nodes()) {
        pre_sources.push_back(endpoint);
      }
    }
  }
  std::vector<graph::NodeId> dirty =
      CollectDirtyRoots(graph_, pre_sources, max_edges, max_degree);
  // The graph as it was before the batch, where every maintained row was
  // counted: the subsets the batch removes are counted on it.
  const std::shared_ptr<const graph::HetGraph> pre_csr = graph_.SharedCsr();

  // Apply the ops. Rejections are deterministic functions of graph state,
  // so WAL replay of full batches reconstructs identical outcomes.
  const graph::NodeId pre_num_nodes = graph_.num_nodes();
  std::string error;
  for (const DeltaOp& op : ops) {
    if (graph_.Apply(op, &error)) {
      ++result.applied;
    } else {
      ++result.rejected;
      if (result.first_error.empty()) result.first_error = error;
    }
  }

  if (result.applied == 0) {
    // Nothing changed; still advance the epoch so client and delta log
    // agree on the number of batches processed.
    result.epoch = ++epoch_;
    if (metrics_.registry != nullptr) {
      metrics_.registry->Increment(metrics_.batches);
      metrics_.registry->Observe(metrics_.apply_micros, watch.ElapsedMicros());
    }
    return result;
  }

  // Pass 2: dirty roots in the POST-mutation graph (post degrees). A
  // removal can unblock a hub, creating reach that exists only post; an
  // addition creates reach that exists only post as well. New nodes are
  // sources too — their (empty or fresh) rows must materialize.
  std::vector<graph::NodeId> post_sources;
  for (const DeltaOp& op : ops) {
    if (op.kind == DeltaKind::kAddNode) continue;
    for (const graph::NodeId endpoint : {op.u, op.v}) {
      if (endpoint >= 0 && endpoint < graph_.num_nodes()) {
        post_sources.push_back(endpoint);
      }
    }
  }
  for (graph::NodeId v = pre_num_nodes; v < graph_.num_nodes(); ++v) {
    post_sources.push_back(v);
  }
  std::vector<graph::NodeId> post_dirty =
      CollectDirtyRoots(graph_, post_sources, max_edges, max_degree);

  dirty.insert(dirty.end(), post_dirty.begin(), post_dirty.end());
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  if (graph_.overlay_entries() > config_.compact_threshold) {
    graph_.Compact();
  }
  const graph::HetGraph& csr = graph_.Materialize();

  NetChange change = NetEdgeChange(*pre_csr, csr, ops);
  const std::vector<graph::NodeId> crossing =
      CrossingRoots(*pre_csr, csr, change, config_.census);
  const bool any_removed = !change.removed.empty();
  const bool any_added = !change.added.empty();
  // `worker` runs the full re-censuses and counts the added edges. The
  // removed ones are counted on the pre-batch CSR, where they exist. Both
  // distance tables and the pre-batch worker take O(nodes) to build, so each
  // is built at the first delta root that counts its side, and a side the
  // batch did not change is never counted: its census stays empty.
  core::CensusWorker worker(csr, config_.census);
  std::optional<core::CensusWorker> pre_worker;
  std::optional<core::ChangedEdges> removed;
  std::optional<core::ChangedEdges> added;

  // Roots in ascending order so vocabulary growth (hashes interned
  // ascending within each root) is deterministic and replay-stable.
  const size_t columns_before = hashes_.size();
  const int64_t budget = config_.census.max_subgraphs;
  core::CensusResult census;
  core::CensusResult removed_census;
  core::CensusResult added_census;
  int64_t delta_roots = 0;
  int64_t full_roots[kNumReasons] = {};
  for (const graph::NodeId root : dirty) {
    const auto row = rows_.find(root);
    FullCensusReason reason;
    if (row == rows_.end()) {
      reason = kFirstTouch;
    } else if (std::binary_search(crossing.begin(), crossing.end(), root)) {
      reason = kDmaxCrossing;
    } else {
      // A row's counts sum to its census total, truncated or not.
      int64_t total = 0;
      if (budget > 0) {
        for (const auto& entry : row->second) total += entry.second;
      }
      if (budget <= 0 || total < budget) {
        if (any_removed) {
          if (!removed) {
            pre_worker.emplace(*pre_csr, config_.census);
            removed.emplace(*pre_csr, std::move(change.removed),
                            config_.census);
          }
          pre_worker->RunThrough(root, *removed, removed_census);
        }
        if (any_added) {
          if (!added) {
            added.emplace(csr, std::move(change.added), config_.census);
          }
          worker.RunThrough(root, *added, added_census);
        }
        total += added_census.total_subgraphs - removed_census.total_subgraphs;
      }
      if (budget <= 0 || total < budget) {
        MergeDelta(removed_census, added_census, row->second);
        ++delta_roots;
        continue;
      }
      reason = kBudget;
    }
    ++full_roots[reason];
    worker.Run(root, census);
    StoreRow(root, census);
  }

  if (metrics_.registry != nullptr) {
    util::MetricsRegistry& registry = *metrics_.registry;
    registry.Increment(metrics_.batches);
    registry.Increment(metrics_.dirty_roots,
                       static_cast<int64_t>(dirty.size()));
    registry.Increment(metrics_.delta_roots, delta_roots);
    registry.Increment(metrics_.first_touch, full_roots[kFirstTouch]);
    registry.Increment(metrics_.dmax_crossing, full_roots[kDmaxCrossing]);
    registry.Increment(metrics_.budget, full_roots[kBudget]);
    registry.Observe(metrics_.apply_micros, watch.ElapsedMicros());
  }
  result.dirty_roots = std::move(dirty);
  result.new_columns = static_cast<int>(hashes_.size() - columns_before);
  result.epoch = ++epoch_;
  return result;
}

uint64_t StreamEngine::epoch() const {
  util::ReaderMutexLock lock(mutex_);
  return epoch_;
}

size_t StreamEngine::num_columns() const {
  util::ReaderMutexLock lock(mutex_);
  return hashes_.size();
}

size_t StreamEngine::overlay_rows() const {
  util::ReaderMutexLock lock(mutex_);
  return rows_.size();
}

graph::NodeId StreamEngine::num_nodes() const {
  util::ReaderMutexLock lock(mutex_);
  return graph_.num_nodes();
}

std::vector<std::string> StreamEngine::label_names() const {
  util::ReaderMutexLock lock(mutex_);
  return graph_.label_names();
}

std::vector<uint64_t> StreamEngine::vocabulary() const {
  util::ReaderMutexLock lock(mutex_);
  return hashes_;
}

bool StreamEngine::HasRow(graph::NodeId node) const {
  util::ReaderMutexLock lock(mutex_);
  return rows_.find(node) != rows_.end();
}

std::optional<std::vector<double>> StreamEngine::DenseRow(
    graph::NodeId node) const {
  util::ReaderMutexLock lock(mutex_);
  const auto it = rows_.find(node);
  if (it == rows_.end()) return std::nullopt;
  std::vector<double> dense(hashes_.size(), 0.0);
  for (const auto& [column, count] : it->second) {
    dense[column] = Transform(count, config_.log1p_transform);
  }
  return dense;
}

std::optional<std::vector<std::pair<uint32_t, int64_t>>>
StreamEngine::RowCounts(graph::NodeId node) const {
  util::ReaderMutexLock lock(mutex_);
  const auto it = rows_.find(node);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

std::optional<core::CensusResult> StreamEngine::CensusNode(
    graph::NodeId node, util::StopToken stop) const {
  util::ReaderMutexLock lock(mutex_);
  if (node < 0 || node >= graph_.num_nodes()) return std::nullopt;
  core::CensusWorker worker(graph_.csr(), config_.census);
  core::CensusResult result;
  worker.Run(node, result, stop);
  return result;
}

std::vector<double> StreamEngine::ProjectCounts(
    const util::FlatCountMap& counts) const {
  util::ReaderMutexLock lock(mutex_);
  std::vector<double> dense(hashes_.size(), 0.0);
  // Alias bound while the shared lock is held: the ForEach lambda is
  // analyzed as a separate function, so it reads through the local
  // reference instead of the guarded member.
  const std::unordered_map<uint64_t, uint32_t>& column_of = column_of_;
  counts.ForEach([&](uint64_t hash, int64_t count) {
    const auto it = column_of.find(hash);
    if (it != column_of.end()) {
      dense[it->second] = Transform(count, config_.log1p_transform);
    }
  });
  return dense;
}

}  // namespace hsgf::stream
