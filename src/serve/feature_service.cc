#include "serve/feature_service.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/encoding.h"
#include "util/check.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace hsgf::serve {

FeatureService::FeatureService(io::Snapshot snapshot,
                               util::MetricsRegistry& metrics,
                               FeatureServiceConfig config)
    : snapshot_(std::move(snapshot)),
      metrics_(metrics),
      config_(config),
      cache_(config.cache_capacity, config.cache_shards) {
  snapshot_hits_ = metrics_.Counter("serve.snapshot_hits");
  cache_hits_ = metrics_.Counter("serve.cache_hits");
  cache_misses_ = metrics_.Counter("serve.cache_misses");
  not_found_ = metrics_.Counter("serve.not_found");
  deadline_exceeded_ = metrics_.Counter("serve.deadline_exceeded");
  cold_census_micros_ = metrics_.Histogram("serve.cold_census_micros");
  stream_hits_ = metrics_.Counter("serve.stream_hits");
  updates_ = metrics_.Counter("serve.updates");
  update_dirty_roots_ = metrics_.Counter("serve.update_dirty_roots");
  cache_invalidations_ = metrics_.Counter("serve.cache_invalidations");

  const auto hashes = snapshot_.feature_hashes();
  column_of_.reserve(hashes.size());
  for (uint32_t c = 0; c < hashes.size(); ++c) column_of_.emplace(hashes[c], c);
}

bool FeatureService::AttachGraph(const graph::HetGraph& graph,
                                 std::string* error) {
  // Encoding hashes are a function of the label alphabet: a graph with a
  // different alphabet would silently produce features in a different
  // coordinate system — AttachGraphStorage refuses the mismatch.
  return AttachGraphStorage(graph, error);
}

core::ExtractorConfig FeatureService::ColdExtractorConfig() const {
  core::ExtractorConfig config;
  config.census.max_edges = snapshot_.max_edges();
  config.census.max_degree = snapshot_.effective_dmax();
  config.census.mask_start_label = snapshot_.mask_start_label();
  config.census.hash_seed = snapshot_.hash_seed();
  config.census.keep_encodings = false;  // vocabulary is fixed by the snapshot
  config.num_threads = 1;                // cold misses are single-node
  return config;
}

bool FeatureService::AttachStream(stream::StreamEngine& engine,
                                  std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (engine.label_names() != snapshot_.label_names()) {
    return fail("stream engine label alphabet does not match the snapshot's");
  }
  const core::CensusConfig& census = engine.census_config();
  if (census.max_edges != snapshot_.max_edges() ||
      census.max_degree != snapshot_.effective_dmax() ||
      census.mask_start_label != snapshot_.mask_start_label() ||
      census.hash_seed != snapshot_.hash_seed()) {
    return fail(
        "stream engine census parameters (emax/dmax/mask/seed) do not match "
        "the snapshot's");
  }
  if (engine.log1p_transform() != snapshot_.log1p_transform()) {
    return fail("stream engine value transform does not match the snapshot's");
  }
  if (engine.epoch() != 0 || engine.num_columns() != 0) {
    return fail("stream engine already carries state; attach a fresh one");
  }
  const auto hashes = snapshot_.feature_hashes();
  engine.SeedVocabulary({hashes.data(), hashes.size()});
  engine.AttachMetrics(&metrics_);
  stream_ = &engine;
  return true;
}

FeatureService::FeatureReply FeatureService::GetFeatures(graph::NodeId node) {
  return GetFeatures(node, util::StopToken());
}

FeatureService::FeatureReply FeatureService::GetFeatures(graph::NodeId node,
                                                         util::StopToken stop) {
  FeatureReply reply;
  if (TryGetFeaturesFast(node, &reply)) return reply;
  metrics_.Increment(cache_misses_);
  return stream_ != nullptr ? ComputeColdStream(node, stop)
                            : ComputeCold(node, stop);
}

bool FeatureService::TryGetFeaturesFast(graph::NodeId node,
                                        FeatureReply* reply) {
  const uint64_t epoch = stream_ != nullptr ? stream_->epoch() : 0;

  // Incrementally maintained rows first: they reflect graph mutations the
  // snapshot predates, so they must shadow the snapshot's stale row.
  if (stream_ != nullptr) {
    if (auto streamed = stream_->DenseRow(node)) {
      metrics_.Increment(stream_hits_);
      *reply = {Outcome::kOk, FeatureSource::kStream, std::move(*streamed),
                epoch};
      return true;
    }
  }
  const int64_t row = snapshot_.FindRow(node);
  if (row >= 0) {
    metrics_.Increment(snapshot_hits_);
    std::vector<double> values = snapshot_.DenseRow(static_cast<uint32_t>(row));
    if (stream_ != nullptr) {
      // The stream vocabulary extends the snapshot's, never reorders it, so
      // a snapshot row is served at the current width by zero-padding.
      values.resize(stream_->num_columns(), 0.0);
    }
    *reply = {Outcome::kOk, FeatureSource::kSnapshot, std::move(values), epoch};
    return true;
  }
  if (auto cached = cache_.Get(node)) {
    metrics_.Increment(cache_hits_);
    *reply = {Outcome::kOk, FeatureSource::kCache, std::move(*cached), epoch};
    return true;
  }
  const bool in_range =
      stream_ != nullptr
          ? (node >= 0 && node < stream_->num_nodes())
          : (cold_ != nullptr && node >= 0 && node < cold_->num_nodes());
  if (!in_range) {
    metrics_.Increment(not_found_);
    *reply = {Outcome::kNotFound, FeatureSource::kComputed, {}, epoch};
    return true;
  }
  return false;  // only a cold census can answer
}

FeatureService::UpdateReply FeatureService::ApplyUpdate(
    std::span<const stream::DeltaOp> ops) {
  HSGF_CHECK(stream_ != nullptr) << "ApplyUpdate without an attached stream";
  stream::StreamEngine::ApplyResult applied = stream_->ApplyBatch(ops);
  metrics_.Increment(updates_);
  metrics_.Increment(update_dirty_roots_,
                     static_cast<int64_t>(applied.dirty_roots.size()));

  if (applied.new_columns > 0) {
    // Every cached vector is now short (and a cached census may even have
    // counted one of the newly interned hashes); drop them all. Vocabulary
    // growth is rare at steady state — a mature base graph has already
    // exposed most encodings — so this stays cheap in the common case.
    const auto dropped = static_cast<int64_t>(cache_.size());
    cache_.Clear();
    metrics_.Increment(cache_invalidations_, dropped);
  } else {
    for (const graph::NodeId root : applied.dirty_roots) {
      if (cache_.Erase(root)) metrics_.Increment(cache_invalidations_);
    }
  }

  UpdateReply reply;
  reply.epoch = applied.epoch;
  reply.applied = applied.applied;
  reply.rejected = applied.rejected;
  reply.dirty_roots = static_cast<int>(applied.dirty_roots.size());
  reply.new_columns = applied.new_columns;
  reply.first_error = std::move(applied.first_error);
  return reply;
}

FeatureService::EpochInfo FeatureService::GetEpoch() const {
  EpochInfo info;
  if (stream_ == nullptr) return info;
  info.stream_attached = true;
  info.epoch = stream_->epoch();
  info.num_columns = stream_->num_columns();
  info.overlay_rows = stream_->overlay_rows();
  return info;
}

FeatureService::FeatureReply FeatureService::ComputeCold(
    graph::NodeId node, const util::StopToken& caller_stop) {
  // Link the service-level census deadline with the caller's token (server
  // shutdown and/or the request deadline); the census polls one token and
  // stops on whichever fires first.
  util::StopSource stop_source(caller_stop);
  util::StopToken stop;
  if (config_.cold_census_deadline_s > 0.0) {
    stop_source.SetDeadlineAfter(config_.cold_census_deadline_s);
  }
  if (config_.cold_census_deadline_s > 0.0 || caller_stop.CanStop()) {
    stop = stop_source.Token();
  }
  util::Stopwatch watch;
  core::CensusResult census = cold_->RunCensus(node, stop);
  metrics_.Observe(cold_census_micros_, watch.ElapsedMicros());
  if (census.stopped) {
    // Partial counts would differ from what a full extraction produces;
    // fail the request rather than serve (or cache) them.
    metrics_.Increment(deadline_exceeded_);
    return {Outcome::kDeadline, FeatureSource::kComputed, {}};
  }

  // Project the sparse census onto the snapshot's vocabulary — the same
  // fill BuildFeatureSet performs, so values are bit-identical to the
  // producing extraction's matrix row.
  std::vector<double> values(snapshot_.num_cols(), 0.0);
  const bool log1p = snapshot_.log1p_transform();
  census.counts.ForEach([&](uint64_t hash, int64_t count) {
    auto it = column_of_.find(hash);
    if (it == column_of_.end()) return;
    values[it->second] = log1p ? std::log1p(static_cast<double>(count))
                               : static_cast<double>(count);
  });
  cache_.Put(node, values);
  return {Outcome::kOk, FeatureSource::kComputed, std::move(values), 0};
}

FeatureService::FeatureReply FeatureService::ComputeColdStream(
    graph::NodeId node, const util::StopToken& caller_stop) {
  util::StopSource stop_source(caller_stop);
  util::StopToken stop;
  if (config_.cold_census_deadline_s > 0.0) {
    stop_source.SetDeadlineAfter(config_.cold_census_deadline_s);
  }
  if (config_.cold_census_deadline_s > 0.0 || caller_stop.CanStop()) {
    stop = stop_source.Token();
  }
  util::Stopwatch watch;
  std::optional<core::CensusResult> census = stream_->CensusNode(node, stop);
  metrics_.Observe(cold_census_micros_, watch.ElapsedMicros());
  const uint64_t epoch = stream_->epoch();
  if (!census.has_value()) {
    metrics_.Increment(not_found_);
    return {Outcome::kNotFound, FeatureSource::kComputed, {}, epoch};
  }
  if (census->stopped) {
    metrics_.Increment(deadline_exceeded_);
    return {Outcome::kDeadline, FeatureSource::kComputed, {}, epoch};
  }
  std::vector<double> values = stream_->ProjectCounts(census->counts);
  cache_.Put(node, values);
  return {Outcome::kOk, FeatureSource::kComputed, std::move(values), epoch};
}

std::vector<uint64_t> FeatureService::Vocabulary() const {
  if (stream_ != nullptr) return stream_->vocabulary();
  const auto hashes = snapshot_.feature_hashes();
  return {hashes.begin(), hashes.end()};
}

std::vector<FeatureService::VocabularyEntry> FeatureService::TopKEncodings(
    size_t k) const {
  const size_t n = std::min<size_t>(k, snapshot_.num_cols());
  const int effective_labels =
      static_cast<int>(snapshot_.num_labels()) +
      (snapshot_.mask_start_label() ? 1 : 0);
  // Rank by the stored column totals. Columns arrive in BuildFeatureSet's
  // raw-count order, which the log1p transform does not preserve, so a
  // prefix of the column order is not the top-k of the stored values.
  std::vector<uint32_t> order(snapshot_.num_cols());
  std::iota(order.begin(), order.end(), 0u);
  const auto totals = snapshot_.column_totals();
  const auto hashes = snapshot_.feature_hashes();
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(n),
                    order.end(), [&](uint32_t a, uint32_t b) {
                      if (totals[a] != totals[b]) return totals[a] > totals[b];
                      return hashes[a] < hashes[b];  // deterministic ties
                    });
  std::vector<VocabularyEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = order[i];
    VocabularyEntry entry;
    entry.hash = hashes[c];
    entry.total = totals[c];
    const core::Encoding encoding = snapshot_.EncodingOf(c);
    if (encoding.empty()) {
      // Built via append: `"h" + std::to_string(...)` trips a GCC 12
      // -Wrestrict false positive (PR105329) under -O3.
      std::string name = "h";
      name += std::to_string(entry.hash);
      entry.encoding = std::move(name);
    } else {
      entry.encoding = core::EncodingToString(encoding, effective_labels,
                                              snapshot_.label_names());
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

FeatureService::Stats FeatureService::GetStats() const {
  Stats stats;
  stats.num_rows = snapshot_.num_rows();
  stats.num_cols = snapshot_.num_cols();
  stats.num_labels = snapshot_.num_labels();
  stats.max_edges = snapshot_.max_edges();
  stats.effective_dmax = snapshot_.effective_dmax();
  stats.graph_attached = cold_ != nullptr;
  stats.stream_attached = stream_ != nullptr;
  if (stream_ != nullptr) {
    stats.epoch = stream_->epoch();
    stats.stream_columns = stream_->num_columns();
    stats.stream_rows = stream_->overlay_rows();
  }
  stats.cache_entries = cache_.size();
  stats.cache_capacity = cache_.capacity();
  stats.cache_evictions = cache_.evictions();
  return stats;
}

}  // namespace hsgf::serve
