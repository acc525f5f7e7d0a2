#include "core/directed_census.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/check.h"

namespace hsgf::core {

// --- SmallDiGraph ----------------------------------------------------------

SmallDiGraph::SmallDiGraph(std::vector<graph::Label> labels)
    : labels_(std::move(labels)) {
  HSGF_CHECK_LE(num_nodes(), kMaxNodes);
}

int SmallDiGraph::num_arcs() const {
  int total = 0;
  for (int v = 0; v < num_nodes(); ++v) total += std::popcount(out_[v]);
  return total;
}

void SmallDiGraph::AddArc(int u, int v) {
  HSGF_DCHECK(u != v && u >= 0 && v >= 0 && u < num_nodes() &&
              v < num_nodes());
  out_[u] |= static_cast<uint16_t>(1u << v);
  in_[v] |= static_cast<uint16_t>(1u << u);
}

bool SmallDiGraph::IsWeaklyConnected() const {
  if (num_nodes() == 0) return true;
  uint16_t visited = 1u;
  uint16_t frontier = 1u;
  const uint16_t all = static_cast<uint16_t>((1u << num_nodes()) - 1);
  while (frontier != 0 && visited != all) {
    uint16_t next = 0;
    uint16_t f = frontier;
    while (f != 0) {
      int v = std::countr_zero(f);
      f &= static_cast<uint16_t>(f - 1);
      next |= static_cast<uint16_t>(out_[v] | in_[v]);
    }
    frontier = next & static_cast<uint16_t>(~visited);
    visited |= next;
  }
  return visited == all;
}

std::vector<std::pair<int, int>> SmallDiGraph::Arcs() const {
  std::vector<std::pair<int, int>> arcs;
  for (int u = 0; u < num_nodes(); ++u) {
    uint16_t mask = out_[u];
    while (mask != 0) {
      int v = std::countr_zero(mask);
      mask &= static_cast<uint16_t>(mask - 1);
      arcs.emplace_back(u, v);
    }
  }
  return arcs;
}

std::string SmallDiGraph::ToString() const {
  std::ostringstream out;
  out << "labels=[";
  for (int v = 0; v < num_nodes(); ++v) {
    if (v > 0) out << ',';
    out << static_cast<int>(labels_[v]);
  }
  out << "] arcs=[";
  bool first = true;
  for (const auto& [u, v] : Arcs()) {
    if (!first) out << ',';
    first = false;
    out << u << "->" << v;
  }
  out << ']';
  return out.str();
}

// --- Directed encoding ------------------------------------------------------

Encoding EncodeSmallDiGraph(const SmallDiGraph& graph, int num_labels) {
  const int block = 1 + 2 * num_labels;
  std::vector<std::vector<uint8_t>> blocks;
  blocks.reserve(graph.num_nodes());
  for (int v = 0; v < graph.num_nodes(); ++v) {
    std::vector<uint8_t> bytes(block, 0);
    bytes[0] = graph.label(v);
    uint16_t in_mask = graph.InMask(v);
    while (in_mask != 0) {
      int u = std::countr_zero(in_mask);
      in_mask &= static_cast<uint16_t>(in_mask - 1);
      ++bytes[1 + graph.label(u)];
    }
    uint16_t out_mask = graph.OutMask(v);
    while (out_mask != 0) {
      int u = std::countr_zero(out_mask);
      out_mask &= static_cast<uint16_t>(out_mask - 1);
      ++bytes[1 + num_labels + graph.label(u)];
    }
    blocks.push_back(std::move(bytes));
  }
  std::sort(blocks.begin(), blocks.end(), DescendingBlockOrder);
  Encoding encoding;
  encoding.reserve(blocks.size() * block);
  for (const auto& bytes : blocks) {
    encoding.insert(encoding.end(), bytes.begin(), bytes.end());
  }
  return encoding;
}

std::string DirectedEncodingToString(
    const Encoding& encoding, int num_labels,
    const std::vector<std::string>& label_names) {
  const int block = 1 + 2 * num_labels;
  if (block <= 1 || encoding.size() % block != 0) return "<malformed>";
  std::ostringstream out;
  for (size_t offset = 0; offset < encoding.size(); offset += block) {
    if (offset > 0) out << ' ';
    graph::Label label = encoding[offset];
    if (label < label_names.size()) {
      out << label_names[label];
    } else {
      out << '#' << static_cast<int>(label);
    }
    out << "|in:";
    for (int l = 0; l < num_labels; ++l) {
      out << static_cast<int>(encoding[offset + 1 + l]);
    }
    out << "|out:";
    for (int l = 0; l < num_labels; ++l) {
      out << static_cast<int>(encoding[offset + 1 + num_labels + l]);
    }
  }
  return out.str();
}

// --- DirectedCensusWorker ---------------------------------------------------

// Home of the digraph worker's code (see the extern template declaration in
// directed_census.h).
template class BasicCensusWorker<graph::DirectedHetGraph>;

CensusResult RunDirectedCensus(const graph::DirectedHetGraph& graph,
                               graph::NodeId start,
                               const CensusConfig& config) {
  DirectedCensusWorker worker(graph, config);
  CensusResult result;
  worker.Run(start, result);
  return result;
}

}  // namespace hsgf::core
