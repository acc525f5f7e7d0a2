// Helpers shared by the serve and update workloads: the served snapshot,
// an in-process daemon on its own thread, and checked client calls.
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/extractor.h"
#include "graph/het_graph.h"
#include "io/snapshot.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace perfbench {

// Extracts `nodes`, saves the snapshot to `path`, opens it and unlinks the
// file (the mapping stays valid). Spans: core.extract_snapshot,
// io.snapshot_save, io.snapshot_open. False (with *error) on failure.
bool BuildSnapshot(const hsgf::graph::HetGraph& graph,
                   const std::vector<hsgf::graph::NodeId>& nodes,
                   const hsgf::core::ExtractorConfig& config,
                   const std::string& path, hsgf::core::FeatureSet* rows,
                   hsgf::io::Snapshot* snapshot, double* file_mb,
                   std::string* error);

// Runs a daemon's blocking Serve() loop on its own thread; stops and joins
// it on destruction. Works for serve::SocketServer and router::Router.
template <typename Daemon>
class DaemonThread {
 public:
  explicit DaemonThread(Daemon& daemon)
      : daemon_(daemon), thread_([this] { daemon_.Serve(); }) {}
  ~DaemonThread() {
    daemon_.RequestStop();
    thread_.join();
  }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

 private:
  Daemon& daemon_;
  std::thread thread_;
};

// A v3 client on loopback TCP with a socket deadline, so a wedged daemon
// fails the run instead of hanging it.
bool ConnectClient(int port, hsgf::serve::Client* client, std::string* error);

inline bool SameValues(const std::vector<double>& values, const double* row,
                       size_t cols) {
  return values.size() == cols &&
         (cols == 0 ||
          std::memcmp(values.data(), row, cols * sizeof(double)) == 0);
}

// Folds a call's outcome into the report's failure accounting: transport
// and protocol errors, and statuses such as kOverloaded, kUnavailable or a
// deadline, fail the operation. Returns true when the call succeeded.
bool CallSucceeded(const hsgf::serve::ClientResult& result, Report& report,
                   const char* what);

// Batch replies are kOk overall; each root carries its own status.
bool BatchSucceeded(const hsgf::serve::Response& response, size_t expected,
                    Report& report, const char* what);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
