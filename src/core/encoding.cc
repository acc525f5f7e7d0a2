#include "core/encoding.h"

#include <algorithm>
#include <sstream>

#include "simd/kernels.h"
#include "util/check.h"

namespace hsgf::core {

Encoding EncodeSignatures(std::vector<NodeSignature> signatures,
                          int num_labels) {
  HSGF_CHECK_GE(num_labels, 1);
  const int block = num_labels + 1;
  // Descending lexicographic block order (Eq. 2: s_v1 >= s_v2 >= ... >=
  // s_vn), compared directly on the signatures so no per-block byte vectors
  // are materialized. A block is [label, counts...], so label compares
  // first; the count arrays go through the dispatched byte-compare kernel
  // (memcmp semantics — hand-rolled because GCC's memcmp bound analysis
  // misfires on inlined vector<uint8_t> three-way compares under -O3).
  const simd::KernelTable& kernels = simd::ActiveKernels();
  auto descending = [&kernels](const NodeSignature& a,
                               const NodeSignature& b) {
    if (a.label != b.label) return a.label > b.label;
    const size_t n = std::min(a.neighbor_counts.size(),
                              b.neighbor_counts.size());
    const int cmp =
        kernels.compare_bytes(a.neighbor_counts.data(),
                              b.neighbor_counts.data(), n);
    if (cmp != 0) return cmp > 0;
    return a.neighbor_counts.size() > b.neighbor_counts.size();
  };
  std::sort(signatures.begin(), signatures.end(), descending);
  Encoding encoding;
  encoding.reserve(signatures.size() * block);
  for (const NodeSignature& sig : signatures) {
    HSGF_DCHECK_EQ(static_cast<int>(sig.neighbor_counts.size()), num_labels);
    encoding.push_back(sig.label);
    encoding.insert(encoding.end(), sig.neighbor_counts.begin(),
                    sig.neighbor_counts.end());
  }
  // Canonicality (what makes equal subgraphs hash equal): fixed block size,
  // blocks in descending order.
  HSGF_DCHECK_EQ(encoding.size(), signatures.size() * block);
  HSGF_DCHECK(std::is_sorted(signatures.begin(), signatures.end(), descending))
      << "encoding blocks are not in canonical descending order";
  return encoding;
}

bool DescendingBlockOrder(const std::vector<uint8_t>& a,
                          const std::vector<uint8_t>& b) {
  // The byte-compare kernel for the same -O3 reason as above.
  const size_t n = std::min(a.size(), b.size());
  const int cmp = simd::CompareBytes(a.data(), b.data(), n);
  if (cmp != 0) return cmp > 0;
  return a.size() > b.size();
}

Encoding EncodeSmallGraph(const SmallGraph& graph, int num_labels) {
  HSGF_CHECK_GE(num_labels, graph.MaxLabelPlusOne())
      << "label alphabet too small for the graph's labels";
  std::vector<NodeSignature> signatures(graph.num_nodes());
  for (int v = 0; v < graph.num_nodes(); ++v) {
    signatures[v].label = graph.label(v);
    signatures[v].neighbor_counts.assign(num_labels, 0);
    for (int l = 0; l < num_labels; ++l) {
      signatures[v].neighbor_counts[l] = static_cast<uint8_t>(
          graph.LabelDegree(v, static_cast<graph::Label>(l)));
    }
  }
  return EncodeSignatures(std::move(signatures), num_labels);
}

std::optional<std::vector<NodeSignature>> DecodeEncoding(
    const Encoding& encoding, int num_labels) {
  const int block = num_labels + 1;
  if (block <= 1 || encoding.size() % block != 0) return std::nullopt;
  std::vector<NodeSignature> signatures;
  signatures.reserve(encoding.size() / block);
  for (size_t offset = 0; offset < encoding.size(); offset += block) {
    NodeSignature sig;
    sig.label = encoding[offset];
    sig.neighbor_counts.assign(encoding.begin() + offset + 1,
                               encoding.begin() + offset + block);
    signatures.push_back(std::move(sig));
  }
  return signatures;
}

std::string EncodingToString(const Encoding& encoding, int num_labels,
                             const std::vector<std::string>& label_names) {
  auto signatures = DecodeEncoding(encoding, num_labels);
  if (!signatures.has_value()) return "<malformed encoding>";
  std::ostringstream out;
  bool first = true;
  for (const NodeSignature& sig : *signatures) {
    if (!first) out << ' ';
    first = false;
    if (sig.label < label_names.size()) {
      out << label_names[sig.label];
    } else {
      out << '#' << static_cast<int>(sig.label);
    }
    for (uint8_t count : sig.neighbor_counts) {
      out << static_cast<int>(count);
    }
  }
  return out.str();
}

namespace {

// Greedily realizes the bipartite demands between two distinct label groups
// (Gale–Ryser style): repeatedly satisfy the left node with the largest
// remaining demand using the right nodes with the largest remaining demands.
// `left`/`right` index into `demand_*`; edges are appended to `graph`.
bool RealizeBipartite(const std::vector<int>& left, const std::vector<int>& right,
                      std::vector<int>& demand_left,
                      std::vector<int>& demand_right, SmallGraph& graph) {
  // Track which pairs are used (simple graph: no parallel edges).
  for (;;) {
    // Left node with maximum remaining demand.
    int best = -1;
    for (int v : left) {
      if (demand_left[v] > 0 && (best == -1 || demand_left[v] > demand_left[best])) {
        best = v;
      }
    }
    if (best == -1) break;
    // Connect to the demand_left[best] right nodes with highest demand that
    // are not already adjacent.
    std::vector<int> candidates;
    for (int u : right) {
      if (demand_right[u] > 0 && !graph.HasEdge(best, u)) candidates.push_back(u);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](int a, int b) { return demand_right[a] > demand_right[b]; });
    if (static_cast<int>(candidates.size()) < demand_left[best]) return false;
    int need = demand_left[best];
    for (int i = 0; i < need; ++i) {
      graph.AddEdge(best, candidates[i]);
      --demand_right[candidates[i]];
    }
    demand_left[best] = 0;
  }
  // All right demand must be consumed too.
  for (int u : right) {
    if (demand_right[u] != 0) return false;
  }
  return true;
}

// Havel–Hakimi within a single label group (demands toward the own label).
bool RealizeWithinGroup(const std::vector<int>& group, std::vector<int>& demand,
                        SmallGraph& graph) {
  for (;;) {
    int best = -1;
    for (int v : group) {
      if (demand[v] > 0 && (best == -1 || demand[v] > demand[best])) best = v;
    }
    if (best == -1) return true;
    std::vector<int> candidates;
    for (int u : group) {
      if (u != best && demand[u] > 0 && !graph.HasEdge(best, u)) {
        candidates.push_back(u);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](int a, int b) { return demand[a] > demand[b]; });
    if (static_cast<int>(candidates.size()) < demand[best]) return false;
    int need = demand[best];
    for (int i = 0; i < need; ++i) {
      graph.AddEdge(best, candidates[i]);
      --demand[candidates[i]];
    }
    demand[best] = 0;
  }
}

}  // namespace

std::optional<SmallGraph> RealizeEncoding(const Encoding& encoding,
                                          int num_labels) {
  auto signatures = DecodeEncoding(encoding, num_labels);
  if (!signatures.has_value()) return std::nullopt;
  const int n = static_cast<int>(signatures->size());
  if (n > SmallGraph::kMaxNodes) return std::nullopt;

  std::vector<graph::Label> labels(n);
  for (int v = 0; v < n; ++v) labels[v] = (*signatures)[v].label;
  SmallGraph graph(std::move(labels));

  // Group nodes by label.
  std::vector<std::vector<int>> by_label(num_labels);
  for (int v = 0; v < n; ++v) by_label[(*signatures)[v].label].push_back(v);

  // The subproblems decompose exactly per label pair because a node's demand
  // toward label l can only be satisfied by l-labelled nodes.
  for (int a = 0; a < num_labels; ++a) {
    for (int b = a; b < num_labels; ++b) {
      std::vector<int> demand_a(n, 0);
      std::vector<int> demand_b(n, 0);
      int64_t total_a = 0;
      int64_t total_b = 0;
      for (int v : by_label[a]) {
        demand_a[v] = (*signatures)[v].neighbor_counts[b];
        total_a += demand_a[v];
      }
      for (int u : by_label[b]) {
        demand_b[u] = (*signatures)[u].neighbor_counts[a];
        total_b += demand_b[u];
      }
      if (a == b) {
        if (total_a % 2 != 0) return std::nullopt;
        if (!RealizeWithinGroup(by_label[a], demand_a, graph)) {
          return std::nullopt;
        }
      } else {
        if (total_a != total_b) return std::nullopt;
        if (!RealizeBipartite(by_label[a], by_label[b], demand_a, demand_b,
                              graph)) {
          return std::nullopt;
        }
      }
    }
  }
  return graph;
}

uint64_t FnvHash(const Encoding& encoding) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint8_t byte : encoding) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace hsgf::core
