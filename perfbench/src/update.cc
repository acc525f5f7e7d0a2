// update — writes beside reads on one server.
//
// A stream::StreamEngine is attached to the server's FeatureService, with a
// stream::DeltaLogWriter write-ahead log. One connection sends small seeded
// delta batches (mostly edge adds, some removals, a few node adds) on a fixed
// periodic schedule; another sends single-root reads, half of them of roots
// the latest batches dirtied and half of random roots, as a Poisson stream.
// Both are open loops: each request is sent at its due time whatever is
// still outstanding, and is timed from that due time, so a read that waits
// behind an update running inline on the server's event thread counts that
// wait (README.md, "Defects found"). An update runs about 40 % of the time,
// so the read p90 falls deep inside the waiting reads: near their edge (a
// tenth waiting) it would swing by several times the update cost's own
// swing. Four ops a batch make a batch's cost vary less than one op's, so
// at that share a batch's p90 still fits its period on a host 40 % slower
// and updates do not queue behind each other.
//
// Checks: every update reply and every read are replayed on a replica
// engine fed the same batches (epoch by epoch); the write-ahead log must
// hold exactly the batches sent; and after the run every row — maintained
// by the engine or still the snapshot's — must equal a fresh
// StreamEngine::CensusNode of the final graph, read over the wire.
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.h"
#include "data/generator.h"
#include "data/schema.h"
#include "graph/builder.h"
#include "serve/feature_service.h"
#include "serve/server.h"
#include "serving.h"
#include "stream/delta_log.h"
#include "stream/dirty_tracker.h"
#include "stream/dynamic_graph.h"
#include "stream/stream_engine.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using hsgf::graph::NodeId;
using hsgf::stream::DeltaOp;

struct Sizes {
  double scale;         // data::LoadLikeSchema scale of one community
  int communities;      // disjoint LOAD-like communities in the graph
  int emax;
  int dmax;
  double update_rate;   // batches per second, periodic
  int batch_ops;        // ops per batch
  double read_rate;     // reads per second, Poisson
};

constexpr Sizes kFull = {0.25, 4, 3, 16, 6.0, 4, 400.0};
constexpr Sizes kTiny = {0.1, 2, 3, 16, 30.0, 3, 200.0};

struct State {
  hsgf::graph::HetGraph graph;  // the base graph (the engine owns a copy)
  std::vector<NodeId> nodes;    // every base node: the snapshot's rows
  hsgf::core::ExtractorConfig config;
  hsgf::core::FeatureSet rows;
  hsgf::io::Snapshot snapshot;
  double snapshot_mb = 0.0;
  std::string log_path;

  hsgf::util::MetricsRegistry metrics;
  std::unique_ptr<hsgf::stream::StreamEngine> engine;
  hsgf::stream::DeltaLogWriter log;
  std::unique_ptr<hsgf::serve::FeatureService> service;
  std::unique_ptr<hsgf::serve::SocketServer> server;
  std::unique_ptr<DaemonThread<hsgf::serve::SocketServer>> server_thread;
  hsgf::serve::Client writer;
  hsgf::serve::Client reader;

  ~State() {
    writer.Close();
    reader.Close();
    server_thread.reset();
    server.reset();
    service.reset();
    log.Close();
    std::remove(log_path.c_str());
  }
};

// `sizes.communities` LOAD-like networks side by side, each generated from
// the seed. How far an edit reaches, and so an update's cost, hangs on a
// network's few hubs: on one scale-0.25 network the median update cost
// ranged ±17 % over eight seeds, on four side by side ±6 %. Edge adds
// between communities join them as the run goes on.
hsgf::graph::HetGraph MakeCommunities(const Sizes& sizes, uint64_t seed) {
  const hsgf::data::NetworkSchema schema =
      hsgf::data::LoadLikeSchema(sizes.scale);
  hsgf::graph::GraphBuilder builder(schema.label_names);
  for (int c = 0; c < sizes.communities; ++c) {
    const hsgf::graph::HetGraph part = hsgf::data::MakeNetwork(
        schema, seed * static_cast<uint64_t>(sizes.communities) + c);
    const NodeId base = builder.num_nodes();
    for (NodeId v = 0; v < part.num_nodes(); ++v) {
      builder.AddNode(part.label(v));
    }
    for (NodeId v = 0; v < part.num_nodes(); ++v) {
      for (const NodeId w : part.neighbors(v)) {
        if (v < w) builder.AddEdge(base + v, base + w);
      }
    }
  }
  return std::move(builder).Build();
}

hsgf::stream::StreamEngineConfig EngineConfig(const State& state) {
  hsgf::stream::StreamEngineConfig config;
  config.census = state.config.census;
  config.census.max_degree = state.snapshot.effective_dmax();
  return config;
}

std::unique_ptr<State> Setup(const Sizes& sizes, const Options& options,
                             int repetition, std::string* error) {
  Span span("setup", static_cast<uint64_t>(repetition) + 1);
  auto state = std::make_unique<State>();
  {
    Span generate("data.generate");
    state->graph = MakeCommunities(sizes, options.seed);
  }
  for (NodeId v = 0; v < state->graph.num_nodes(); ++v) {
    state->nodes.push_back(v);
  }
  state->config.census.max_edges = sizes.emax;
  state->config.census.max_degree = sizes.dmax;
  // One extractor thread per CPU this (pinned) process may use.
  state->config.num_threads = AvailableCpus();
  const std::string stem = options.work_dir + "/update-" +
                           std::to_string(options.seed) + "-" +
                           std::to_string(repetition);
  if (!BuildSnapshot(state->graph, state->nodes, state->config,
                     stem + ".hsnap", &state->rows, &state->snapshot,
                     &state->snapshot_mb, error)) {
    return nullptr;
  }
  {
    Span start("stream.start");
    state->engine = std::make_unique<hsgf::stream::StreamEngine>(
        state->graph, EngineConfig(*state));
    state->log_path = stem + ".dlog";
    std::remove(state->log_path.c_str());
    if (!state->log.Open(state->log_path, error)) return nullptr;
  }
  {
    Span start("serve.start");
    state->service = std::make_unique<hsgf::serve::FeatureService>(
        state->snapshot, state->metrics);
    if (!state->service->AttachStream(*state->engine, error)) return nullptr;
    hsgf::serve::ServerConfig config;
    config.tcp_port = 0;
    config.delta_log = &state->log;
    state->server = std::make_unique<hsgf::serve::SocketServer>(
        *state->service, state->metrics, config);
    if (!state->server->Start(error)) return nullptr;
    state->server_thread =
        std::make_unique<DaemonThread<hsgf::serve::SocketServer>>(
            *state->server);
  }
  {
    Span connect("serve.connect");
    if (!ConnectClient(state->server->tcp_port(), &state->writer, error) ||
        !ConnectClient(state->server->tcp_port(), &state->reader, error)) {
      return nullptr;
    }
  }
  return state;
}

// The seeded open-loop schedules, fixed before anything is sent.
struct Schedule {
  std::vector<double> update_due_s;
  std::vector<std::vector<DeltaOp>> batches;
  std::vector<double> read_due_s;
  std::vector<NodeId> read_nodes;
};

Schedule MakeSchedule(const Sizes& sizes, const State& state, uint64_t seed,
                      double seconds) {
  Schedule schedule;
  hsgf::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 41);
  const hsgf::graph::HetGraph& g = state.graph;
  const NodeId n = g.num_nodes();
  const int updates = static_cast<int>(seconds * sizes.update_rate);
  int added_nodes = 0;
  for (int i = 0; i < updates; ++i) {
    schedule.update_due_s.push_back(i / sizes.update_rate);
    std::vector<DeltaOp> ops;
    for (int k = 0; k < sizes.batch_ops; ++k) {
      const uint64_t pick = rng.UniformInt(20);
      if (pick == 0) {
        ops.push_back(DeltaOp::AddNode(static_cast<hsgf::graph::Label>(
            rng.UniformInt(static_cast<uint64_t>(g.num_labels())))));
        ++added_nodes;
      } else if (pick <= 4) {
        // Remove an edge of the base graph (rejected if already removed).
        NodeId u = 0;
        do {
          u = static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(n)));
        } while (g.degree(u) == 0);
        const auto neighbors = g.neighbors(u);
        ops.push_back(DeltaOp::RemoveEdge(
            u, neighbors[rng.UniformInt(neighbors.size())]));
      } else {
        const NodeId limit = n + added_nodes;
        ops.push_back(DeltaOp::AddEdge(
            static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(limit))),
            static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(limit)))));
      }
    }
    schedule.batches.push_back(std::move(ops));
  }
  double t = rng.Exponential(sizes.read_rate);
  while (t < seconds) {
    schedule.read_due_s.push_back(t);
    // Half the reads hit a root the latest batch touched (so it was just
    // re-censused), half a uniformly random base node.
    const int latest = static_cast<int>(t * sizes.update_rate);
    NodeId node = static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(n)));
    if (rng.Bernoulli(0.5) && latest < updates) {
      for (const DeltaOp& op : schedule.batches[static_cast<size_t>(latest)]) {
        if (op.kind != hsgf::stream::DeltaKind::kAddNode && op.u < n) {
          node = op.u;
          break;
        }
      }
    }
    schedule.read_nodes.push_back(node);
    t += rng.Exponential(sizes.read_rate);
  }
  return schedule;
}

// Requests sent on one connection at their due times, with a receiver
// thread collecting the replies (matched by request id).
struct OpenLoop {
  std::vector<Clock::time_point> sent;
  std::vector<Clock::time_point> done;
  std::vector<hsgf::serve::Response> replies;
  std::vector<bool> ok;
};

// Traced runs trace the requests due in even seconds and leave those due in
// odd seconds untraced: the difference is the tracing overhead.
bool TracedWindow(double due_s) { return static_cast<int64_t>(due_s) % 2 == 0; }

void Drive(hsgf::serve::Client& client, Clock::time_point start,
           const std::vector<double>& due_s,
           const std::function<hsgf::serve::Request(size_t)>& make,
           const char* name, bool trace, Report& report, OpenLoop* loop) {
  const size_t count = due_s.size();
  loop->sent.assign(count, Clock::time_point{});
  loop->done.assign(count, Clock::time_point{});
  loop->replies.assign(count, hsgf::serve::Response{});
  loop->ok.assign(count, false);
  // What the sender has put on the wire, handed to the receiver so it never
  // blocks in Receive for a reply to a request not yet sent. The receiver
  // sleeps on the condition variable rather than spinning: the server shares
  // its CPU with these threads.
  std::mutex mutex;
  std::condition_variable sent_cv;
  size_t sent = 0;         // guarded by mutex
  bool stopped = false;    // guarded by mutex: no more sends
  uint32_t first_id = 0;   // guarded by mutex: id of request 0
  std::thread receiver([&] {
    for (size_t received = 0;; ++received) {
      uint32_t base = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        sent_cv.wait(lock, [&] { return sent > received || stopped; });
        if (sent <= received) return;  // every sent request answered
        base = first_id;
      }
      hsgf::serve::Response response;
      const hsgf::serve::ClientResult result = client.Receive(&response);
      const Clock::time_point now = Clock::now();
      if (!result.ok() && result.error != hsgf::serve::ClientResult::Error::kServerStatus) {
        // The connection is unusable; everything outstanding is lost.
        report.Failed(std::string(name) + ": " + result.message);
        return;
      }
      const size_t index = response.request_id - base;
      if (index >= count) {
        report.Failed(std::string(name) + ": reply to an unknown request");
        return;
      }
      loop->done[index] = now;
      loop->ok[index] = CallSucceeded(result, report, name);
      loop->replies[index] = std::move(response);
      if (trace && TracedWindow(due_s[index])) {
        RecordSpan(name, index + 1, SteadyNs(loop->sent[index]), SteadyNs(now));
      }
    }
  });
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    uint32_t id = 0;
    const hsgf::serve::Request request = make(i);
    loop->sent[i] = Clock::now();
    if (trace && TracedWindow(due_s[i])) {
      RecordSpan("bench.send_lag", i + 1, SteadyNs(due), SteadyNs(loop->sent[i]));
    }
    const hsgf::serve::ClientResult result = client.Send(request, &id);
    report.Attempted();
    if (!result.ok()) {
      report.Failed(std::string(name) + ": send: " + result.message);
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (i == 0) first_id = id;
      sent = i + 1;
    }
    sent_cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    stopped = true;
  }
  sent_cv.notify_one();
  receiver.join();
}

// Latencies from the due time; `window` 0 keeps every request, 1 those in
// traced windows, 2 those in untraced windows.
std::vector<double> LatenciesMs(const OpenLoop& loop, Clock::time_point start,
                                const std::vector<double>& due_s,
                                int window = 0) {
  std::vector<double> ms;
  for (size_t i = 0; i < due_s.size(); ++i) {
    if (!loop.ok[i]) continue;
    if (window != 0 && TracedWindow(due_s[i]) != (window == 1)) continue;
    ms.push_back(MillisBetween(start, loop.done[i]) - due_s[i] * 1e3);
  }
  return ms;
}

std::vector<double> LagMs(const OpenLoop& loop, Clock::time_point start,
                          const std::vector<double>& due_s) {
  std::vector<double> ms;
  for (size_t i = 0; i < due_s.size(); ++i) {
    if (loop.sent[i] == Clock::time_point{}) continue;
    ms.push_back(MillisBetween(start, loop.sent[i]) - due_s[i] * 1e3);
  }
  return ms;
}

// The row a FeatureService answers from `engine` and `snapshot`: the
// engine's maintained row, else the snapshot row zero-padded to the current
// vocabulary.
std::vector<double> ExpectedRow(const hsgf::stream::StreamEngine& engine,
                                const hsgf::io::Snapshot& snapshot,
                                NodeId node) {
  if (auto row = engine.DenseRow(node)) return *row;
  const int64_t index = snapshot.FindRow(node);
  if (index < 0) return {};
  std::vector<double> values = snapshot.DenseRow(static_cast<uint32_t>(index));
  values.resize(engine.num_columns(), 0.0);
  return values;
}

}  // namespace

bool RunUpdate(const Options& options, Report& report) {
  const Sizes& sizes = options.tiny ? kTiny : kFull;
  SetTracing(options.trace);
  std::string error;
  SetupTimer<State> setups([&](int repetition) {
    return Setup(sizes, options, repetition, &error);
  });
  std::unique_ptr<State> state = setups.Before();
  SetTracing(false);
  if (state == nullptr) {
    std::fprintf(stderr, "error: update setup: %s\n", error.c_str());
    return false;
  }
  const Schedule schedule =
      MakeSchedule(sizes, *state, options.seed, options.seconds);
  std::fprintf(stderr,
               "[update] %d LOAD-like communities, %d nodes / %lld edges; "
               "%zu batches at %.0f/s, %zu reads at %.0f/s\n",
               sizes.communities, state->graph.num_nodes(),
               static_cast<long long>(state->graph.num_edges()),
               schedule.batches.size(), sizes.update_rate,
               schedule.read_due_s.size(), sizes.read_rate);

  // Traced runs also time the stream stages one by one on a replica.
  SetTracing(options.trace);
  OpenLoop updates;
  OpenLoop reads;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::thread update_sender([&] {
    Drive(state->writer, start, schedule.update_due_s,
          [&](size_t i) {
            hsgf::serve::Request request;
            request.type = hsgf::serve::MessageType::kApplyUpdate;
            request.ops = schedule.batches[i];
            return request;
          },
          "serve.apply_update", options.trace, report, &updates);
  });
  Drive(state->reader, start, schedule.read_due_s,
        [&](size_t i) {
          hsgf::serve::Request request;
          request.type = hsgf::serve::MessageType::kGetFeatures;
          request.node = schedule.read_nodes[i];
          return request;
        },
        "serve.get_features", options.trace, report, &reads);
  update_sender.join();
  SetTracing(false);

  // --- Checks ----------------------------------------------------------------
  const hsgf::util::MetricsSnapshot server_metrics = state->metrics.Snapshot();
  // The self-test perturbs one gate's reference (Options::Corrupts): each
  // gate below must then fail the run.
  if (options.Corrupts("rows")) state->rows.matrix(0, 0) += 1.0;
  // Base rows at epoch 0 must be the extractor's.
  for (size_t i = 0; i < state->nodes.size(); ++i) {
    const auto index = state->snapshot.FindRow(state->nodes[i]);
    const std::vector<double> row =
        state->snapshot.DenseRow(static_cast<uint32_t>(index));
    if (!SameValues(row, state->rows.matrix.row(static_cast<int>(i)),
                    static_cast<size_t>(state->rows.matrix.cols()))) {
      report.Mismatch("snapshot row of node " + std::to_string(state->nodes[i]) +
                      " differs from the extractor's");
    }
  }
  // The write-ahead log holds exactly the batches sent.
  const hsgf::stream::DeltaLogContents logged =
      hsgf::stream::ReadDeltaLog(state->log_path);
  std::vector<std::vector<DeltaOp>> sent_batches = schedule.batches;
  if (options.Corrupts("log") && !sent_batches.empty()) sent_batches.pop_back();
  if (!logged.ok() || logged.torn_tail || logged.batches != sent_batches) {
    report.Mismatch("the write-ahead log does not hold the batches sent");
  }

  // Replay on a replica, checking update replies and reads epoch by epoch.
  std::vector<std::vector<size_t>> reads_at(schedule.batches.size() + 1);
  for (size_t i = 0; i < reads.replies.size(); ++i) {
    if (!reads.ok[i]) continue;
    const uint64_t epoch = reads.replies[i].epoch;
    if (epoch >= reads_at.size()) {
      report.Mismatch("read reports epoch " + std::to_string(epoch));
      continue;
    }
    reads_at[epoch].push_back(i);
  }
  hsgf::stream::StreamEngine replica(state->graph, EngineConfig(*state));
  const auto hashes = state->snapshot.feature_hashes();
  replica.SeedVocabulary({hashes.data(), hashes.size()});
  std::unique_ptr<hsgf::stream::DynamicGraph> staged;
  hsgf::stream::DeltaLogWriter staged_log;
  if (options.trace) {
    staged = std::make_unique<hsgf::stream::DynamicGraph>(state->graph);
    if (!staged_log.Open(state->log_path + ".replica", &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return false;
    }
    SetTracing(true);
  }
  std::vector<double> dirty_per_batch;
  bool corrupt_read = options.Corrupts("read");
  for (size_t epoch = 0; epoch <= schedule.batches.size(); ++epoch) {
    if (epoch > 0) {
      const std::vector<DeltaOp>& ops = schedule.batches[epoch - 1];
      hsgf::stream::StreamEngine::ApplyResult applied;
      {
        Span span("stream.apply_batch", epoch);
        applied = replica.ApplyBatch(ops);
      }
      dirty_per_batch.push_back(static_cast<double>(applied.dirty_roots.size()));
      if (epoch == 1 && options.Corrupts("reply")) ++applied.applied;
      const hsgf::serve::Response& reply = updates.replies[epoch - 1];
      if (updates.ok[epoch - 1] &&
          (reply.epoch != applied.epoch ||
           reply.applied != static_cast<uint32_t>(applied.applied) ||
           reply.rejected != static_cast<uint32_t>(applied.rejected) ||
           reply.dirty_roots != applied.dirty_roots.size() ||
           reply.new_columns != static_cast<uint32_t>(applied.new_columns))) {
        report.Mismatch("update " + std::to_string(epoch) +
                        " reply differs from the replica's");
      }
      if (staged != nullptr) {
        // The engine's stages, one by one, on a second replica.
        {
          Span span("stream.wal_append", epoch);
          staged_log.Append(ops);
        }
        std::vector<NodeId> sources;
        for (const DeltaOp& op : ops) {
          if (op.kind == hsgf::stream::DeltaKind::kAddNode) continue;
          for (const NodeId v : {op.u, op.v}) {
            if (v >= 0 && v < staged->num_nodes()) sources.push_back(v);
          }
        }
        const hsgf::stream::StreamEngineConfig config = EngineConfig(*state);
        {
          Span span("stream.dirty_bfs", epoch);
          hsgf::stream::CollectDirtyRoots(*staged, sources,
                                          config.census.max_edges,
                                          config.census.max_degree);
        }
        for (const DeltaOp& op : ops) staged->Apply(op);
        {
          Span span("stream.dirty_bfs", epoch);
          hsgf::stream::CollectDirtyRoots(*staged, sources,
                                          config.census.max_edges,
                                          config.census.max_degree);
        }
        Span span("stream.materialize", epoch);
        staged->Materialize();
      }
    }
    for (const size_t i : reads_at[epoch]) {
      const NodeId node = schedule.read_nodes[i];
      std::vector<double> expected = ExpectedRow(replica, state->snapshot, node);
      if (corrupt_read && !expected.empty()) {
        expected[0] += 1.0;
        corrupt_read = false;
      }
      if (!SameValues(reads.replies[i].values, expected.data(),
                      replica.num_columns())) {
        report.Mismatch("read of node " + std::to_string(node) + " at epoch " +
                        std::to_string(epoch) + " differs from the replica's");
      }
    }
  }
  SetTracing(false);
  staged_log.Close();
  std::remove((state->log_path + ".replica").c_str());

  // Final state over the wire: every row equals a fresh census.
  {
    hsgf::stream::StreamEngine& engine = *state->engine;
    std::vector<NodeId> all(static_cast<size_t>(engine.num_nodes()));
    for (size_t v = 0; v < all.size(); ++v) all[v] = static_cast<NodeId>(v);
    constexpr size_t kChunk = 512;
    bool corrupt_final = options.Corrupts("final");
    for (size_t begin = 0; begin < all.size(); begin += kChunk) {
      const std::vector<NodeId> chunk(
          all.begin() + static_cast<long>(begin),
          all.begin() + static_cast<long>(std::min(all.size(), begin + kChunk)));
      hsgf::serve::Response response;
      report.Attempted();
      if (!CallSucceeded(state->reader.GetFeaturesBatch(chunk, &response),
                         report, "final read") ||
          !BatchSucceeded(response, chunk.size(), report, "final read")) {
        continue;
      }
      for (size_t i = 0; i < chunk.size(); ++i) {
        const auto census = engine.CensusNode(chunk[i]);
        std::vector<double> expected =
            census ? engine.ProjectCounts(census->counts)
                   : std::vector<double>{};
        if (corrupt_final && !expected.empty()) {
          expected[0] += 1.0;
          corrupt_final = false;
        }
        if (!census || !SameValues(response.batch[i].values, expected.data(),
                                   expected.size())) {
          report.Mismatch("final row of node " + std::to_string(chunk[i]) +
                          " differs from a fresh census");
        }
      }
    }
  }

  // --- Metrics -----------------------------------------------------------------
  const std::vector<double> update_ms =
      LatenciesMs(updates, start, schedule.update_due_s);
  const std::vector<double> read_ms =
      LatenciesMs(reads, start, schedule.read_due_s);
  // The primary operation is an update, the secondary a read beside the
  // updates, both timed from their due time.
  ReportLanes(report, update_ms, read_ms);
  const std::vector<double> update_lag = LagMs(updates, start, schedule.update_due_s);
  const std::vector<double> read_lag = LagMs(reads, start, schedule.read_due_s);
  std::fprintf(stderr,
               "[update] generator lag p50/max: updates %.3f/%.3f ms, reads "
               "%.3f/%.3f ms\n",
               Quantile(update_lag, 0.5), Quantile(update_lag, 1.0),
               Quantile(read_lag, 0.5), Quantile(read_lag, 1.0));
  if (!options.trace) {
    if (!setups.After(std::move(state), report)) {
      std::fprintf(stderr, "error: update setup: %s\n", error.c_str());
      return false;
    }
    return true;
  }

  // Share of reads due while an update was on the server (client-observed:
  // between its send and its reply).
  size_t behind = 0;
  size_t update_index = 0;
  for (size_t i = 0; i < schedule.read_due_s.size(); ++i) {
    const double due_ms = schedule.read_due_s[i] * 1e3;
    while (update_index < updates.done.size() &&
           MillisBetween(start, updates.done[update_index]) < due_ms) {
      ++update_index;
    }
    if (update_index < updates.sent.size() &&
        updates.sent[update_index] != Clock::time_point{} &&
        MillisBetween(start, updates.sent[update_index]) <= due_ms) {
      ++behind;
    }
  }

  const std::vector<SpanRecord> spans = CollectSpans();
  if (!WriteSpans(options.trace_path, spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", options.trace_path.c_str());
    return false;
  }
  const hsgf::util::HistogramSnapshot* apply_micros =
      server_metrics.Histogram("serve.request_micros.apply_update");
  std::vector<double> dirty_bfs_ms;
  {
    // Two BFS passes per batch (before and after the mutation).
    const std::vector<double> passes = SpanSeconds(spans, "stream.dirty_bfs");
    for (size_t i = 0; i + 1 < passes.size(); i += 2) {
      dirty_bfs_ms.push_back((passes[i] + passes[i + 1]) * 1e3);
    }
  }
  const auto ms = [](std::vector<double> seconds) {
    for (double& s : seconds) s *= 1e3;
    return seconds;
  };
  report.Layer("data.generate_s", "s", Median(SpanSeconds(spans, "data.generate")));
  report.Layer("io.snapshot_save_ms", "ms",
               Median(SpanSeconds(spans, "io.snapshot_save")) * 1e3);
  report.Layer("io.snapshot_open_ms", "ms",
               Median(SpanSeconds(spans, "io.snapshot_open")) * 1e3);
  report.Layer("io.snapshot_mb", "MB", state->snapshot_mb);
  report.Layer("serve.update_server_ms_p50", "ms",
               apply_micros ? apply_micros->Percentile(50) * 1e-3 : 0.0);
  report.Layer("serve.reads_behind_update_share", "ratio",
               schedule.read_due_s.empty()
                   ? 0.0
                   : static_cast<double>(behind) /
                         static_cast<double>(schedule.read_due_s.size()));
  report.Layer("stream.apply_batch_ms_p50", "ms",
               Median(ms(SpanSeconds(spans, "stream.apply_batch"))));
  report.Layer("stream.dirty_bfs_ms_p50", "ms", Median(dirty_bfs_ms));
  report.Layer("stream.materialize_ms_p50", "ms",
               Median(ms(SpanSeconds(spans, "stream.materialize"))));
  report.Layer("stream.wal_append_us_p50", "us",
               Median(ms(SpanSeconds(spans, "stream.wal_append"))) * 1e3);
  report.Layer("stream.dirty_roots_per_batch", "count", Median(dirty_per_batch));
  report.Layer("update.read_p50_ms", "ms", Quantile(read_ms, 0.5));
  report.Layer("update.read_p99_ms", "ms", Quantile(read_ms, 0.99));
  report.Layer("update.update_p90_ms", "ms", Quantile(update_ms, 0.9));
  report.Layer("update.update_p99_ms", "ms", Quantile(update_ms, 0.99));
  report.Layer("update.updates", "count", static_cast<double>(update_ms.size()));
  report.Layer("update.reads", "count", static_cast<double>(read_ms.size()));
  report.Layer("update.generator_lag_ms_p90", "ms",
               std::max(Quantile(update_lag, 0.9), Quantile(read_lag, 0.9)));
  report.Layer("update.generator_lag_ms_max", "ms",
               std::max(Quantile(update_lag, 1.0), Quantile(read_lag, 1.0)));
  report.Layer("update.wal_batches", "count",
               static_cast<double>(logged.batches.size()));
  ReportLaneOverheads(
      report, LatenciesMs(updates, start, schedule.update_due_s, 1),
      LatenciesMs(updates, start, schedule.update_due_s, 2),
      LatenciesMs(reads, start, schedule.read_due_s, 1),
      LatenciesMs(reads, start, schedule.read_due_s, 2));
  return true;
}

}  // namespace perfbench
