#include "core/rolling_hash.h"

#include <cassert>

#include "util/rng.h"

namespace hsgf::core {

RollingHash::RollingHash(int num_labels, uint64_t seed)
    : num_labels_(num_labels) {
  assert(num_labels > 0);
  // Draw one odd base per label from a SplitMix64 stream; odd bases keep the
  // multiplicative order high modulo 2^64.
  std::vector<uint64_t> bases(num_labels);
  uint64_t state = seed;
  for (int l = 0; l < num_labels; ++l) {
    bases[l] = util::SplitMix64(state) | 1ULL;
  }
  power_.resize(static_cast<size_t>(num_labels) * num_labels);
  for (int a = 0; a < num_labels; ++a) {
    uint64_t p = bases[a];
    for (int i = 0; i < num_labels; ++i) {
      power_[static_cast<size_t>(a) * num_labels + i] = p;  // b_a^(i+1)
      p *= bases[a];
    }
  }
  edge_delta_.resize(static_cast<size_t>(num_labels) * num_labels);
  for (int a = 0; a < num_labels; ++a) {
    for (int b = 0; b < num_labels; ++b) {
      edge_delta_[static_cast<size_t>(a) * num_labels + b] =
          power_[static_cast<size_t>(a) * num_labels + b] +
          power_[static_cast<size_t>(b) * num_labels + a];
    }
  }
}

uint64_t RollingHash::HashSmallGraph(const SmallGraph& graph) const {
  uint64_t hash = 0;
  for (const auto& [u, v] : graph.Edges()) {
    hash += EdgeDelta(graph.label(u), graph.label(v));
  }
  return hash;
}

uint64_t RollingHash::HashEncoding(const Encoding& encoding) const {
  auto signatures = DecodeEncoding(encoding, num_labels_);
  assert(signatures.has_value());
  // Eq. 5 per node: the neighbour-count row dotted with the label's power
  // row, summed mod 2^64.
  uint64_t hash = 0;
  for (const NodeSignature& sig : *signatures) {
    for (int l = 0; l < num_labels_; ++l) {
      hash += static_cast<uint64_t>(sig.neighbor_counts[l]) *
              Power(sig.label, static_cast<graph::Label>(l));
    }
  }
  return hash;
}

}  // namespace hsgf::core
