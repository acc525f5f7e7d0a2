// serve — online reads in a closed loop, one connection per CPU.
//
// One serve::SocketServer holds a snapshot of a hot row set; its cold misses
// are censused on demand from a gstore container of the graph whose block
// cache is a quarter of the container. The same snapshot is sliced over
// three in-process backends behind a router::Router. Every round runs five
// phases back to back, each on all connections at once: direct single-root
// reads, direct 16-root batches, first reads of nodes missing from the
// snapshot, routed single-root reads and routed 16-root batches. Short
// interleaved rounds make a slow spell of the shared host hit every kind of
// request alike. Every served row is compared bit for bit with the
// extractor's row; cold rows with those of an in-process FeatureService
// backed by the CSR.
//
// Routed traffic uses the router's own sockets and the client's default
// socket options: the ~44 ms per routed request that Nagle's algorithm and
// delayed ACKs cost there (README.md, "Defects found") is measured as is.
#include <atomic>
#include <barrier>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "data/generator.h"
#include "data/schema.h"
#include "gstore/cgraph_writer.h"
#include "gstore/compressed_graph.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "router/slicer.h"
#include "serve/feature_service.h"
#include "serve/server.h"
#include "serving.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using hsgf::graph::NodeId;

enum Kind { kRead, kBatch, kCold, kRouted, kRoutedBatch, kKinds };
const char* const kSpanNames[kKinds] = {
    "serve.get_features", "serve.get_features_batch", "serve.cold_read",
    "router.get_features", "router.get_features_batch"};

struct Sizes {
  double scale;             // data::LoadLikeSchema scale
  int hot_rows;             // rows in the snapshot ...
  int hubs_left_cold;       // ... none of them among this many top hubs
  int emax;
  int dmax;
  uint32_t block_entries;   // gstore block size (adjacency entries)
  int shards;               // backends behind the router
  int per_round[kKinds];    // operations per connection per round
};

constexpr int kBatchRoots = 16;
constexpr Sizes kFull = {2.0, 1024, 64, 3, 16, 1024, 3, {256, 32, 3, 2, 2}};
constexpr Sizes kTiny = {0.1, 96, 8, 3, 16, 256, 3, {64, 8, 1, 2, 2}};

struct Backend {
  hsgf::util::MetricsRegistry metrics;
  hsgf::io::Snapshot snapshot;
  std::unique_ptr<hsgf::serve::FeatureService> service;
  std::unique_ptr<hsgf::serve::SocketServer> server;
  std::unique_ptr<DaemonThread<hsgf::serve::SocketServer>> thread;

  ~Backend() {
    thread.reset();
    server.reset();
    service.reset();
  }
};

struct State {
  hsgf::graph::HetGraph graph;
  std::vector<NodeId> hot;  // snapshot rows, in row order
  std::unordered_map<NodeId, int> hot_row;
  std::vector<NodeId> cold;  // nodes missing from the snapshot, read order
  hsgf::core::ExtractorConfig config;
  hsgf::core::FeatureSet rows;  // the extractor's rows: the reference
  hsgf::io::Snapshot snapshot;
  double snapshot_mb = 0.0;
  uint32_t cgraph_blocks = 0;
  std::unique_ptr<hsgf::gstore::CompressedGraph> cgraph;

  hsgf::util::MetricsRegistry metrics;  // direct server, service, gstore
  std::unique_ptr<hsgf::serve::FeatureService> service;
  std::unique_ptr<hsgf::serve::SocketServer> server;
  std::unique_ptr<DaemonThread<hsgf::serve::SocketServer>> server_thread;

  std::vector<std::unique_ptr<Backend>> backends;
  hsgf::util::MetricsRegistry router_metrics;
  std::unique_ptr<hsgf::router::Router> router;
  std::unique_ptr<DaemonThread<hsgf::router::Router>> router_thread;

  std::vector<hsgf::serve::Client> direct;  // one per connection
  std::vector<hsgf::serve::Client> routed;

  ~State() {
    direct.clear();
    routed.clear();
    router_thread.reset();
    router.reset();
    backends.clear();
    server_thread.reset();
    server.reset();
    service.reset();
  }
};

bool StartBackends(const Options& options, int repetition, State& state,
                   hsgf::router::ShardMap* map,
                   std::string* error) {
  const std::string prefix = options.work_dir + "/serve-" +
                             std::to_string(options.seed) + "-" +
                             std::to_string(repetition) + ".shard";
  const auto slice_path = [&prefix](uint32_t shard) {
    return prefix + std::to_string(shard) + ".hsnap";
  };
  hsgf::router::SliceStats stats;
  if (!hsgf::router::WriteShardSlices(state.snapshot, *map, slice_path, &stats,
                                      error)) {
    return false;
  }
  for (uint32_t shard = 0; shard < map->num_shards(); ++shard) {
    auto backend = std::make_unique<Backend>();
    hsgf::io::SnapshotError snapshot_error;
    auto slice = hsgf::io::OpenSnapshot(slice_path(shard), &snapshot_error);
    std::remove(slice_path(shard).c_str());
    if (!slice.has_value()) {
      *error = "OpenSnapshot(shard " + std::to_string(shard) +
               "): " + snapshot_error.message;
      return false;
    }
    backend->snapshot = *slice;
    backend->service = std::make_unique<hsgf::serve::FeatureService>(
        backend->snapshot, backend->metrics);
    hsgf::serve::ServerConfig config;
    config.tcp_port = 0;
    backend->server = std::make_unique<hsgf::serve::SocketServer>(
        *backend->service, backend->metrics, config);
    if (!backend->server->Start(error)) return false;
    backend->thread = std::make_unique<DaemonThread<hsgf::serve::SocketServer>>(
        *backend->server);
    map->set_endpoints(
        shard, {"tcp:" + std::to_string(backend->server->tcp_port())});
    state.backends.push_back(std::move(backend));
  }
  return true;
}

std::unique_ptr<State> Setup(const Sizes& sizes, const Options& options,
                             unsigned connections, int repetition,
                             std::string* error) {
  Span span("setup", static_cast<uint64_t>(repetition) + 1);
  auto state = std::make_unique<State>();
  {
    Span generate("data.generate");
    state->graph = hsgf::data::MakeNetwork(
        hsgf::data::LoadLikeSchema(sizes.scale), options.seed);
  }
  {
    // Extracting the hot rows is most of set-up. A top hub's census counts
    // thousands of times the subgraphs of a typical node's, and which of
    // the top hubs a random pick lands on moved the extraction's cost by
    // 20-50 % from seed to seed; so the hot rows are degree-stratified
    // below the top hubs, which stay cold with every other node outside the
    // snapshot. The cold reads walk those nodes in random order.
    Span sample("bench.sample_rows");
    hsgf::util::Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 29);
    const hsgf::graph::HetGraph& g = state->graph;
    const std::vector<NodeId> order =
        ByDegree(g.num_nodes(), [&g](NodeId v) { return g.degree(v); });
    const size_t hubs = std::min(order.size(),
                                 static_cast<size_t>(sizes.hubs_left_cold));
    state->hot = Stratified(
        {order.begin() + static_cast<long>(hubs), order.end()},
        sizes.hot_rows, rng);
    for (size_t i = 0; i < state->hot.size(); ++i) {
      state->hot_row[state->hot[i]] = static_cast<int>(i);
    }
    for (const NodeId v : order) {
      if (state->hot_row.count(v) == 0) state->cold.push_back(v);
    }
    rng.Shuffle(state->cold);
  }
  state->config.census.max_edges = sizes.emax;
  state->config.census.max_degree = sizes.dmax;
  // One extractor thread per CPU this (pinned) process may use.
  state->config.num_threads = AvailableCpus();
  const std::string stem = options.work_dir + "/serve-" +
                           std::to_string(options.seed) + "-" +
                           std::to_string(repetition);
  if (!BuildSnapshot(state->graph, state->hot, state->config, stem + ".hsnap",
                     &state->rows, &state->snapshot, &state->snapshot_mb,
                     error)) {
    return nullptr;
  }
  {
    hsgf::gstore::CGraphError cgraph_error;
    const std::string path = stem + ".hcg";
    {
      Span write("gstore.write");
      hsgf::gstore::CGraphWriterOptions writer;
      writer.block_target_entries = sizes.block_entries;
      if (!hsgf::gstore::WriteCompressedGraph(path, state->graph, &cgraph_error,
                                              writer)) {
        *error = "WriteCompressedGraph: " + cgraph_error.message;
        return nullptr;
      }
    }
    {
      Span open("gstore.open");
      // Probe the block count, then reopen with a cache of a quarter of the
      // container, so cold censuses page blocks in and out.
      auto probe = hsgf::gstore::CompressedGraph::Open(path, {}, &cgraph_error);
      if (probe == nullptr) {
        *error = "CompressedGraph::Open: " + cgraph_error.message;
        return nullptr;
      }
      state->cgraph_blocks = probe->num_blocks();
      hsgf::gstore::CGraphOptions cache;
      cache.cache_bytes = std::max<size_t>(1, state->cgraph_blocks / 4) *
                          sizes.block_entries * sizeof(NodeId);
      state->cgraph =
          hsgf::gstore::CompressedGraph::Open(path, cache, &cgraph_error);
      if (state->cgraph == nullptr) {
        *error = "CompressedGraph::Open: " + cgraph_error.message;
        return nullptr;
      }
      state->cgraph->AttachMetrics(&state->metrics);
    }
    std::remove(path.c_str());
  }
  {
    Span start("serve.start");
    state->service = std::make_unique<hsgf::serve::FeatureService>(
        state->snapshot, state->metrics);
    if (!state->service->AttachGraphStorage(*state->cgraph, error)) {
      return nullptr;
    }
    hsgf::serve::ServerConfig config;
    config.tcp_port = 0;
    state->server = std::make_unique<hsgf::serve::SocketServer>(
        *state->service, state->metrics, config);
    if (!state->server->Start(error)) return nullptr;
    state->server_thread =
        std::make_unique<DaemonThread<hsgf::serve::SocketServer>>(
            *state->server);
  }
  {
    Span start("router.start");
    hsgf::router::ShardMap map =
        hsgf::router::ShardMap::Build(static_cast<uint32_t>(sizes.shards));
    if (!StartBackends(options, repetition, *state, &map, error)) {
      return nullptr;
    }
    hsgf::router::RouterConfig config;
    config.tcp_port = 0;
    state->router = std::make_unique<hsgf::router::Router>(
        map, state->router_metrics, config);
    if (!state->router->Start(error)) return nullptr;
    state->router_thread =
        std::make_unique<DaemonThread<hsgf::router::Router>>(*state->router);
  }
  {
    Span connect("serve.connect");
    state->direct.resize(connections);
    state->routed.resize(connections);
    for (unsigned c = 0; c < connections; ++c) {
      if (!ConnectClient(state->server->tcp_port(), &state->direct[c], error) ||
          !ConnectClient(state->router->tcp_port(), &state->routed[c], error)) {
        return nullptr;
      }
    }
  }
  return state;
}

// Checks served rows against the extractor's rows.
class RowChecker {
 public:
  RowChecker(const State& state, Report& report)
      : state_(state), report_(report),
        cols_(static_cast<size_t>(state.rows.matrix.cols())) {}

  void Row(NodeId node, const std::vector<double>& values,
           const char* what) const {
    const auto it = state_.hot_row.find(node);
    if (it == state_.hot_row.end() ||
        !SameValues(values, state_.rows.matrix.row(it->second), cols_)) {
      report_.Mismatch(std::string(what) + ": node " + std::to_string(node) +
                       " differs from the extractor's row");
    }
  }

  void Batch(const std::vector<NodeId>& nodes,
             const hsgf::serve::Response& response, const char* what) const {
    for (size_t i = 0; i < nodes.size() && i < response.batch.size(); ++i) {
      Row(nodes[i], response.batch[i].values, what);
    }
  }

 private:
  const State& state_;
  Report& report_;
  size_t cols_;
};

// Reads every hot row once directly and in batches, directly and through
// the router, before anything is timed.
void ValidateAllRows(State& state, const RowChecker& check, Report& report) {
  hsgf::serve::Client& direct = state.direct[0];
  hsgf::serve::Client& routed = state.routed[0];
  for (const NodeId node : state.hot) {
    hsgf::serve::Response response;
    report.Attempted();
    if (CallSucceeded(direct.GetFeatures(node, &response), report,
                      "validate direct read")) {
      check.Row(node, response.values, "validate direct read");
    }
  }
  constexpr size_t kChunk = 256;
  for (size_t begin = 0; begin < state.hot.size(); begin += kChunk) {
    const std::vector<NodeId> chunk(
        state.hot.begin() + static_cast<long>(begin),
        state.hot.begin() +
            static_cast<long>(std::min(state.hot.size(), begin + kChunk)));
    for (hsgf::serve::Client* client : {&direct, &routed}) {
      hsgf::serve::Response response;
      report.Attempted();
      if (CallSucceeded(client->GetFeaturesBatch(chunk, &response), report,
                        "validate batch") &&
          BatchSucceeded(response, chunk.size(), report, "validate batch")) {
        check.Batch(chunk, response,
                    client == &direct ? "validate direct batch"
                                      : "validate routed batch");
      }
    }
  }
}

struct ColdRow {
  NodeId node = 0;
  std::vector<double> values;
};

// Per-connection results of the timed rounds.
struct Samples {
  std::vector<double> ms[2][kKinds];  // [traced][kind]
  std::vector<ColdRow> cold_rows;
};

std::vector<double> Merge(const std::vector<Samples>& samples, bool traced,
                          Kind kind) {
  std::vector<double> merged;
  for (const Samples& s : samples) {
    merged.insert(merged.end(), s.ms[traced][kind].begin(),
                  s.ms[traced][kind].end());
  }
  return merged;
}

double HistogramP50(const hsgf::util::MetricsSnapshot& snapshot,
                    const std::string& name) {
  const hsgf::util::HistogramSnapshot* h = snapshot.Histogram(name);
  return h != nullptr ? static_cast<double>(h->Percentile(50)) : 0.0;
}

double Ratio(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

// Mean microseconds per call of `fn` over `iterations` calls.
template <typename Fn>
double MeanMicros(int iterations, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < iterations; ++i) fn();
  return MillisBetween(start, Clock::now()) * 1e3 / iterations;
}

}  // namespace

bool RunServe(const Options& options, Report& report) {
  const Sizes& sizes = options.tiny ? kTiny : kFull;
  const unsigned connections = OnlineCpus();
  SetTracing(options.trace);
  std::string error;
  SetupTimer<State> setups([&](int repetition) {
    return Setup(sizes, options, connections, repetition, &error);
  });
  std::unique_ptr<State> state = setups.Before();
  SetTracing(false);
  if (state == nullptr) {
    std::fprintf(stderr, "error: serve setup: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr,
               "[serve] LOAD-like %d nodes / %lld edges; snapshot %zu rows x "
               "%d cols; %zu cold nodes; container %u blocks; %u "
               "connections\n",
               state->graph.num_nodes(),
               static_cast<long long>(state->graph.num_edges()),
               state->hot.size(), state->rows.matrix.cols(),
               state->cold.size(), state->cgraph_blocks, connections);

  if (options.Corrupts("rows")) state->rows.matrix(0, 0) += 1.0;
  const RowChecker check(*state, report);
  ValidateAllRows(*state, check, report);

  const hsgf::util::MetricsSnapshot direct_before = state->metrics.Snapshot();
  const hsgf::util::MetricsSnapshot router_before =
      state->router_metrics.Snapshot();

  std::vector<Samples> samples(connections);
  std::barrier<> sync(static_cast<std::ptrdiff_t>(connections) + 1);
  std::atomic<bool> stop{false};
  std::atomic<bool> traced_round{false};
  std::atomic<uint64_t> round_span{0};
  std::atomic<size_t> next_cold{0};
  std::atomic<uint64_t> next_request{1};

  auto client_loop = [&](unsigned c) {
    hsgf::util::Rng rng(options.seed * 1000003 + c);
    Samples& mine = samples[c];
    const auto hot_node = [&] {
      return state->hot[rng.UniformInt(state->hot.size())];
    };
    for (;;) {
      sync.arrive_and_wait();
      if (stop.load()) return;
      const bool traced = traced_round.load();
      const uint64_t parent = round_span.load();
      for (int kind = 0; kind < kKinds; ++kind) {
        for (int op = 0; op < sizes.per_round[kind]; ++op) {
          std::vector<NodeId> nodes;
          if (kind == kCold) {
            const size_t i = next_cold.fetch_add(1);
            if (i >= state->cold.size()) break;  // every node read once
            nodes.push_back(state->cold[i]);
          } else if (kind == kBatch || kind == kRoutedBatch) {
            for (int b = 0; b < kBatchRoots; ++b) nodes.push_back(hot_node());
          } else {
            nodes.push_back(hot_node());
          }
          hsgf::serve::Client& client =
              kind >= kRouted ? state->routed[c] : state->direct[c];
          const bool batch = kind == kBatch || kind == kRoutedBatch;
          const uint64_t request = next_request.fetch_add(1);
          hsgf::serve::Response response;
          hsgf::serve::ClientResult result;
          const Clock::time_point start = Clock::now();
          {
            Span span(kSpanNames[kind], request, parent);
            result = batch ? client.GetFeaturesBatch(nodes, &response)
                           : client.GetFeatures(nodes[0], &response);
          }
          mine.ms[traced][kind].push_back(MillisBetween(start, Clock::now()));
          report.Attempted();
          Span span("bench.check", request, parent);
          if (!CallSucceeded(result, report, kSpanNames[kind]) ||
              (batch && !BatchSucceeded(response, nodes.size(), report,
                                        kSpanNames[kind]))) {
            continue;
          }
          if (kind == kCold) {
            mine.cold_rows.push_back({nodes[0], std::move(response.values)});
          } else if (batch) {
            check.Batch(nodes, response, kSpanNames[kind]);
          } else {
            check.Row(nodes[0], response.values, kSpanNames[kind]);
          }
        }
        sync.arrive_and_wait();
      }
    }
  };

  std::vector<std::thread> clients;
  for (unsigned c = 0; c < connections; ++c) clients.emplace_back(client_loop, c);
  const Clock::time_point end = After(options.seconds);
  for (uint64_t round = 1;; ++round) {
    if (Clock::now() >= end && round > 2) {
      stop.store(true);
      sync.arrive_and_wait();
      break;
    }
    // Traced runs alternate traced and untraced rounds: the difference is
    // the tracing overhead.
    const bool traced = options.trace && round % 2 == 1;
    SetTracing(traced);
    traced_round.store(traced);
    Span span("serve.round", round);
    round_span.store(span.id());
    sync.arrive_and_wait();
    for (int kind = 0; kind < kKinds; ++kind) sync.arrive_and_wait();
  }
  for (std::thread& client : clients) client.join();
  SetTracing(false);

  // Cold rows must equal those of an in-process service over the CSR.
  {
    hsgf::util::MetricsRegistry reference_metrics;
    hsgf::serve::FeatureService reference(state->snapshot, reference_metrics);
    if (!reference.AttachGraph(state->graph, &error)) {
      std::fprintf(stderr, "error: reference service: %s\n", error.c_str());
      return false;
    }
    bool corrupt = options.Corrupts("cold");
    for (const Samples& s : samples) {
      for (const ColdRow& row : s.cold_rows) {
        hsgf::serve::FeatureService::FeatureReply expected =
            reference.GetFeatures(row.node);
        if (corrupt && !expected.values.empty()) {
          expected.values[0] += 1.0;
          corrupt = false;
        }
        if (expected.outcome != hsgf::serve::FeatureService::Outcome::kOk ||
            !SameValues(row.values, expected.values.data(),
                        expected.values.size())) {
          report.Mismatch("cold read of node " + std::to_string(row.node) +
                          " differs from the CSR-backed service");
        }
      }
    }
  }

  // The primary operation is a direct hot single-root read, the secondary
  // a single-root read through the router; batches and cold reads are
  // per-layer metrics. (The p90 of cold reads swung by a fifth from seed to
  // seed with the nodes drawn; the routed read is the path a sharded
  // deployment serves.)
  ReportLanes(report, Merge(samples, false, kRead),
              Merge(samples, false, kRouted));
  if (!options.trace) {
    if (!setups.After(std::move(state), report)) {
      std::fprintf(stderr, "error: serve setup: %s\n", error.c_str());
      return false;
    }
    return true;
  }

  // --- Traced run: per-layer metrics ---------------------------------------
  const hsgf::util::MetricsSnapshot direct_after = state->metrics.Snapshot();
  const hsgf::util::MetricsSnapshot router_after =
      state->router_metrics.Snapshot();

  // In-process service time and wire codec cost of a served row and batch.
  std::vector<double> service_us;
  {
    Span span("serve.in_process");
    hsgf::util::Rng rng(options.seed);
    for (int i = 0; i < (options.tiny ? 2000 : 20000); ++i) {
      const NodeId node = state->hot[rng.UniformInt(state->hot.size())];
      const Clock::time_point start = Clock::now();
      const auto reply = state->service->GetFeatures(node);
      service_us.push_back(MillisBetween(start, Clock::now()) * 1e3);
      check.Row(node, reply.values, "in-process read");
    }
  }
  hsgf::serve::Response row;
  row.values.assign(state->rows.matrix.row(0),
                    state->rows.matrix.row(0) + state->rows.matrix.cols());
  hsgf::serve::Response batch;
  for (int b = 0; b < kBatchRoots; ++b) {
    hsgf::serve::BatchEntry entry;
    entry.values = row.values;
    batch.batch.push_back(entry);
  }
  const uint32_t v3 = hsgf::serve::kProtocolV3;
  const std::string row_bytes =
      hsgf::serve::EncodeResponse(hsgf::serve::MessageType::kGetFeatures, row, v3);
  const std::string batch_bytes = hsgf::serve::EncodeResponse(
      hsgf::serve::MessageType::kGetFeaturesBatch, batch, v3);
  const int codec_iterations = options.tiny ? 200 : 5000;
  const auto encode = [&](hsgf::serve::MessageType type,
                          const hsgf::serve::Response& response) {
    return MeanMicros(codec_iterations, [&] {
      const std::string bytes = hsgf::serve::EncodeResponse(type, response, v3);
      if (bytes.empty()) report.Mismatch("empty encoding");
    });
  };
  const auto decode = [&](hsgf::serve::MessageType type,
                          const std::string& bytes) {
    return MeanMicros(codec_iterations, [&] {
      hsgf::serve::Response decoded;
      if (!hsgf::serve::DecodeResponse(
              type,
              {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()},
              &decoded, v3)) {
        report.Mismatch("served response does not decode");
      }
    });
  };
  double encode_row_us = 0, encode_batch_us = 0, decode_row_us = 0,
         decode_batch_us = 0;
  {
    Span span("serve.codec");
    encode_row_us = encode(hsgf::serve::MessageType::kGetFeatures, row);
    encode_batch_us = encode(hsgf::serve::MessageType::kGetFeaturesBatch, batch);
    decode_row_us = decode(hsgf::serve::MessageType::kGetFeatures, row_bytes);
    decode_batch_us =
        decode(hsgf::serve::MessageType::kGetFeaturesBatch, batch_bytes);
  }

  const std::vector<SpanRecord> spans = CollectSpans();
  if (!WriteSpans(options.trace_path, spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", options.trace_path.c_str());
    return false;
  }

  const std::vector<double> reads = Merge(samples, true, kRead);
  const std::vector<double> routed_reads = Merge(samples, true, kRouted);
  const int64_t cold_reads = static_cast<int64_t>(
      Merge(samples, false, kCold).size() + Merge(samples, true, kCold).size());
  const int64_t routed_singles = static_cast<int64_t>(
      routed_reads.size() + Merge(samples, false, kRouted).size());
  const int64_t routed_batches =
      static_cast<int64_t>(Merge(samples, true, kRoutedBatch).size() +
                           Merge(samples, false, kRoutedBatch).size());
  const double read_server_us =
      HistogramP50(direct_after, "serve.request_micros.get_features");

  report.Layer("data.generate_s", "s", Median(SpanSeconds(spans, "data.generate")));
  report.Layer("core.snapshot_extract_s", "s",
               Median(SpanSeconds(spans, "core.extract_snapshot")));
  report.Layer("gstore.write_s", "s", Median(SpanSeconds(spans, "gstore.write")));
  report.Layer("gstore.open_ms", "ms",
               Median(SpanSeconds(spans, "gstore.open")) * 1e3);
  report.Layer("gstore.blocks", "count", state->cgraph_blocks);
  report.Layer("gstore.cache_hit_ratio", "ratio",
               Ratio(direct_after.Counter("gstore.cache_hits"),
                     direct_after.Counter("gstore.cache_hits") +
                         direct_after.Counter("gstore.cache_misses")));
  report.Layer("gstore.blocks_decoded_per_cold_read", "count",
               Ratio(CounterDelta(direct_after, direct_before,
                                  "gstore.blocks_decoded"),
                     cold_reads));
  report.Layer("io.snapshot_save_ms", "ms",
               Median(SpanSeconds(spans, "io.snapshot_save")) * 1e3);
  report.Layer("io.snapshot_open_ms", "ms",
               Median(SpanSeconds(spans, "io.snapshot_open")) * 1e3);
  report.Layer("io.snapshot_mb", "MB", state->snapshot_mb);
  report.Layer("serve.server_us_p50.get_features", "us", read_server_us);
  report.Layer("serve.server_us_p50.get_features_batch", "us",
               HistogramP50(direct_after,
                            "serve.request_micros.get_features_batch"));
  report.Layer("serve.transport_us_p50", "us",
               Quantile(reads, 0.5) * 1e3 - read_server_us);
  report.Layer("serve.service_us_p50", "us", Quantile(service_us, 0.5));
  report.Layer("serve.encode_us", "us", encode_row_us);
  report.Layer("serve.encode_batch_us", "us", encode_batch_us);
  report.Layer("serve.decode_us", "us", decode_row_us);
  report.Layer("serve.decode_batch_us", "us", decode_batch_us);
  report.Layer("serve.cold_census_ms_p50", "ms",
               HistogramP50(direct_after, "serve.cold_census_micros") * 1e-3);
  report.Layer("serve.lru_hit_ratio", "ratio",
               Ratio(direct_after.Counter("serve.cache_hits"),
                     direct_after.Counter("serve.cache_hits") +
                         direct_after.Counter("serve.cache_misses")));
  report.Layer("router.server_us_p50", "us",
               HistogramP50(router_after, "router.request_micros"));
  report.Layer("router.hop_ms", "ms",
               Quantile(routed_reads, 0.5) - Quantile(reads, 0.5));
  report.Layer("router.fanout_per_batch", "count",
               Ratio(CounterDelta(router_after, router_before,
                                  "router.fanout_requests") -
                         routed_singles,
                     routed_batches));
  report.Layer("router.shard_errors", "count",
               static_cast<double>(router_after.Counter("router.shard_errors")));
  report.Layer("router.shard_timeouts", "count",
               static_cast<double>(
                   router_after.Counter("router.shard_timeouts")));
  const char* const kTails[kKinds] = {
      "serve.read_p99_ms", "serve.batch_read_p99_ms", "serve.cold_read_p99_ms",
      "router.read_p99_ms", "router.batch_p99_ms"};
  const char* const kCounts[kKinds] = {
      "serve.read_samples", "serve.batch_read_samples",
      "serve.cold_read_samples", "router.read_samples",
      "router.batch_samples"};
  // Medians of the kinds that are not lanes, and their tracing overhead.
  const char* const kMedians[kKinds] = {
      nullptr, "serve.batch_read_p50_ms", "serve.cold_read_p50_ms",
      "router.read_p50_ms", "router.batch_p50_ms"};
  const char* const kOverheads[kKinds] = {
      nullptr, "trace.overhead.batch_read_p50_ms",
      "trace.overhead.cold_read_p50_ms", "trace.overhead.routed_read_p50_ms",
      "trace.overhead.routed_batch_p50_ms"};
  for (int kind = 0; kind < kKinds; ++kind) {
    const std::vector<double> traced = Merge(samples, true, static_cast<Kind>(kind));
    const std::vector<double> untraced =
        Merge(samples, false, static_cast<Kind>(kind));
    std::vector<double> all = traced;
    all.insert(all.end(), untraced.begin(), untraced.end());
    report.Layer(kTails[kind], "ms", Quantile(all, 0.99));
    report.Layer(kCounts[kind], "count", static_cast<double>(all.size()));
    if (kMedians[kind] == nullptr) continue;
    report.Layer(kMedians[kind], "ms", Quantile(untraced, 0.5));
    report.Layer(kOverheads[kind], "ms",
                 Quantile(traced, 0.5) - Quantile(untraced, 0.5));
  }
  report.Layer("serve.read_p90_ms", "ms",
               Quantile(Merge(samples, false, kRead), 0.9));
  ReportLaneOverheads(report, reads, Merge(samples, false, kRead),
                      routed_reads, Merge(samples, false, kRouted));
  report.Layer("serve.connections", "count", connections);
  return true;
}

}  // namespace perfbench
