#include "serving.h"

#include <cstdio>

#include "trace.h"

namespace perfbench {

bool BuildSnapshot(const hsgf::graph::HetGraph& graph,
                   const std::vector<hsgf::graph::NodeId>& nodes,
                   const hsgf::core::ExtractorConfig& config,
                   const std::string& path, hsgf::core::FeatureSet* rows,
                   hsgf::io::Snapshot* snapshot, double* file_mb,
                   std::string* error) {
  hsgf::core::ExtractionResult extracted;
  {
    Span span("core.extract_snapshot");
    hsgf::core::Extractor extractor(graph, config);
    extracted = extractor.Run(nodes);
  }
  hsgf::io::SnapshotError snapshot_error;
  {
    Span span("io.snapshot_save");
    const hsgf::io::SnapshotContents contents =
        hsgf::io::MakeSnapshotContents(graph, nodes, extracted, config);
    if (!hsgf::io::SaveSnapshot(path, contents, &snapshot_error)) {
      *error = "SaveSnapshot: " + snapshot_error.message;
      return false;
    }
  }
  {
    Span span("io.snapshot_open");
    auto opened = hsgf::io::OpenSnapshot(path, &snapshot_error);
    if (!opened.has_value()) {
      *error = "OpenSnapshot: " + snapshot_error.message;
      return false;
    }
    *snapshot = *opened;
  }
  *file_mb = static_cast<double>(snapshot->file_size()) / (1024.0 * 1024.0);
  std::remove(path.c_str());
  *rows = std::move(extracted.features);
  return true;
}

bool ConnectClient(int port, hsgf::serve::Client* client, std::string* error) {
  client->set_io_timeout_ms(30000);
  hsgf::serve::ClientResult result = client->ConnectTcp(port);
  if (result.ok()) result = client->Hello();
  if (!result.ok()) {
    *error = "connect to port " + std::to_string(port) + ": " + result.message;
    return false;
  }
  return true;
}

bool CallSucceeded(const hsgf::serve::ClientResult& result, Report& report,
                   const char* what) {
  if (result.ok()) return true;
  report.Failed(std::string(what) + ": " + result.message + " (status " +
                std::to_string(static_cast<int>(result.status)) + ")");
  return false;
}

bool BatchSucceeded(const hsgf::serve::Response& response, size_t expected,
                    Report& report, const char* what) {
  if (response.batch.size() != expected) {
    report.Failed(std::string(what) + ": batch reply has " +
                  std::to_string(response.batch.size()) + " entries");
    return false;
  }
  for (const hsgf::serve::BatchEntry& entry : response.batch) {
    if (entry.status != hsgf::serve::StatusCode::kOk) {
      report.Failed(std::string(what) + ": root status " +
                    std::to_string(static_cast<int>(entry.status)) + " " +
                    entry.message);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
