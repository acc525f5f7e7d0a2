#ifndef HSGF_CORE_ENCODING_H_
#define HSGF_CORE_ENCODING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/small_graph.h"
#include "graph/het_graph.h"

namespace hsgf::core {

// Characteristic-sequence encoding of heterogeneous subgraphs (paper §3.1).
//
// For a subgraph H and a fixed label universe of size L, each node v gets the
// sequence s_v = (t_0, t_1, ..., t_L) where t_0 = λ(v) and t_l is the number
// of v's neighbours *within H* that carry label l (Eq. 1). The encoding of H
// is the concatenation of all node sequences sorted in descending
// lexicographic order (Eq. 2). Two small subgraphs are isomorphic iff their
// encodings are equal; beyond emax = 5 edges (4 when the label connectivity
// graph has self loops) rare collisions appear — quantified by
// collision_study.h, reproducing the bounds claimed in §3.1.
//
// Byte layout: num_nodes blocks of (L + 1) bytes each:
//   block = [label, t_0-th-label-count, ..., t_(L-1)-th-label-count]
// Counts fit in a byte because subgraphs have at most ~8 edges.

using Encoding = std::vector<uint8_t>;

// Decoded per-node view of an encoding block.
struct NodeSignature {
  graph::Label label = 0;
  std::vector<uint8_t> neighbor_counts;  // size = num_labels

  int TotalDegree() const {
    int total = 0;
    for (uint8_t c : neighbor_counts) total += c;
    return total;
  }

  friend bool operator==(const NodeSignature&, const NodeSignature&) = default;
};

// Builds the canonical encoding from per-node signatures (sorts blocks
// descending). All signatures must have neighbor_counts of size num_labels.
Encoding EncodeSignatures(std::vector<NodeSignature> signatures,
                          int num_labels);

// Canonical block order for callers that build encoding blocks as byte
// strings (the census, for both orientations, and the directed encoding):
// true iff block `a` sorts before `b`, i.e. `a` is lexicographically
// greater. Blocks of one encoding have equal length.
bool DescendingBlockOrder(const std::vector<uint8_t>& a,
                          const std::vector<uint8_t>& b);

// Encodes a SmallGraph over a label universe of size num_labels (must be
// >= graph.MaxLabelPlusOne()). Isolated nodes are included as all-zero
// blocks; the census never produces them, but the collision study does not
// either (it only enumerates connected graphs).
Encoding EncodeSmallGraph(const SmallGraph& graph, int num_labels);

// Splits an encoding back into per-node signatures. Returns std::nullopt if
// the byte length is not a multiple of (num_labels + 1) or a block is
// malformed (label out of range).
std::optional<std::vector<NodeSignature>> DecodeEncoding(
    const Encoding& encoding, int num_labels);

// Human-readable rendering in the paper's style, e.g. "z010 z010 y002"
// (Fig. 1B). Label indices beyond label_names.size() render as '#<index>'
// (used for the masked start label).
std::string EncodingToString(const Encoding& encoding, int num_labels,
                             const std::vector<std::string>& label_names = {});

// Attempts to realize the encoding as a concrete SmallGraph whose labelled
// degree sequences match the signatures (greedy Havel–Hakimi per label
// pair). Used to *draw* the most discriminative subgraph features (Fig. 4).
// Returns std::nullopt when the greedy construction fails; encodings
// produced by the census are always realizable in principle, and greedy
// realization succeeds for all encodings that occur in practice at
// emax <= 6 (verified by tests).
std::optional<SmallGraph> RealizeEncoding(const Encoding& encoding,
                                          int num_labels);

// 64-bit FNV-1a over the encoding bytes; used for exact-keyed census maps
// and vocabulary indices.
uint64_t FnvHash(const Encoding& encoding);

}  // namespace hsgf::core

#endif  // HSGF_CORE_ENCODING_H_
