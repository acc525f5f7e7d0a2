#include "gstore/compressed_graph.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "graph/builder.h"
#include "gstore/varint.h"
#include "io/crc32.h"

namespace hsgf::gstore {

using cgraph_internal::BlockRef;
using cgraph_internal::Header;
using cgraph_internal::NodeIndexEntry;
using cgraph_internal::Pad8;
using cgraph_internal::SectionRef;

// --- Errors -----------------------------------------------------------------

const char* CGraphErrorCodeName(CGraphErrorCode code) {
  switch (code) {
    case CGraphErrorCode::kOk:
      return "ok";
    case CGraphErrorCode::kIoError:
      return "io_error";
    case CGraphErrorCode::kBadMagic:
      return "bad_magic";
    case CGraphErrorCode::kBadVersion:
      return "bad_version";
    case CGraphErrorCode::kTruncated:
      return "truncated";
    case CGraphErrorCode::kCrcMismatch:
      return "crc_mismatch";
    case CGraphErrorCode::kBlockCrcMismatch:
      return "block_crc_mismatch";
    case CGraphErrorCode::kMalformed:
      return "malformed";
  }
  return "unknown";
}

std::string CGraphError::ToString() const {
  if (ok()) return "ok";
  std::string out = CGraphErrorCodeName(code);
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  return out;
}

// --- Open -------------------------------------------------------------------

CompressedGraph::Mapping::~Mapping() {
  if (data != nullptr) ::munmap(data, size);
}

namespace {

// Advises the kernel about the paging pattern: blob pages are touched in
// cache-miss order (random), while the metadata tail is scanned up front by
// validation and then consulted on every access, so prefetch it eagerly.
void AdviseMapping(void* data, size_t size, uint64_t metadata_offset) {
  uint8_t* base = static_cast<uint8_t*>(data);
  ::madvise(base, size, MADV_RANDOM);
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t aligned = metadata_offset & ~static_cast<uint64_t>(page - 1);
  if (aligned < size) {
    ::madvise(base + aligned, size - aligned, MADV_WILLNEED);
  }
}

}  // namespace

std::unique_ptr<CompressedGraph> CompressedGraph::Open(
    const std::string& path, const CGraphOptions& options,
    CGraphError* error) {
  const auto fail = [&](CGraphErrorCode code, const std::string& message)
      -> std::unique_ptr<CompressedGraph> {
    if (error != nullptr) {
      error->code = code;
      error->message = path + ": " + message;
    }
    return nullptr;
  };

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return fail(CGraphErrorCode::kIoError,
                std::string("open failed: ") + std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return fail(CGraphErrorCode::kIoError,
                std::string("fstat failed: ") + std::strerror(errno));
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return fail(CGraphErrorCode::kTruncated, "empty file");
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (data == MAP_FAILED) {
    return fail(CGraphErrorCode::kIoError,
                std::string("mmap failed: ") + std::strerror(errno));
  }
  auto mapping = std::make_shared<Mapping>(data, size);
  const uint8_t* base = static_cast<const uint8_t*>(data);

  // Validation ladder: magic → truncation → version → header geometry →
  // section table → metadata CRC → semantic invariants. Later rungs may
  // assume everything earlier rungs established.
  if (size >= sizeof(cgraph_internal::kMagic) &&
      std::memcmp(base, cgraph_internal::kMagic,
                  sizeof(cgraph_internal::kMagic)) != 0) {
    return fail(CGraphErrorCode::kBadMagic, "not a cgraph container");
  }
  if (size < sizeof(Header)) {
    return fail(CGraphErrorCode::kTruncated, "file smaller than header");
  }
  const Header* header = reinterpret_cast<const Header*>(base);
  if (header->version != cgraph_internal::kFormatVersion) {
    return fail(CGraphErrorCode::kBadVersion,
                "unsupported version " + std::to_string(header->version));
  }
  if (header->header_size != sizeof(Header)) {
    return fail(CGraphErrorCode::kMalformed, "unexpected header size");
  }
  if ((header->flags & ~cgraph_internal::kFlagDirected) != 0) {
    return fail(CGraphErrorCode::kMalformed, "unknown header flags");
  }
  const bool directed = (header->flags & cgraph_internal::kFlagDirected) != 0;

  // Sections are laid out in a fixed physical order, contiguously, each
  // starting on an 8-byte boundary right after its predecessor's padding.
  static constexpr int kPhysicalOrder[] = {
      cgraph_internal::kBlocks,      cgraph_internal::kLabelNames,
      cgraph_internal::kNodeLabels,  cgraph_internal::kNodeIndex,
      cgraph_internal::kNodeInDegrees, cgraph_internal::kBlockDir,
  };
  uint64_t expected_offset = sizeof(Header);
  for (int s : kPhysicalOrder) {
    const SectionRef& ref = header->sections[s];
    if (ref.offset != expected_offset) {
      return fail(CGraphErrorCode::kMalformed, "section table corrupt");
    }
    if (ref.size > size || ref.offset > size - ref.size) {
      return fail(CGraphErrorCode::kTruncated, "section extends past EOF");
    }
    expected_offset += Pad8(ref.size);
  }
  if (expected_offset > size) {
    return fail(CGraphErrorCode::kTruncated, "final section padding missing");
  }
  for (int s = cgraph_internal::kNumSections;
       s < static_cast<int>(std::size(header->sections)); ++s) {
    if (header->sections[s].offset != 0 || header->sections[s].size != 0) {
      return fail(CGraphErrorCode::kMalformed, "reserved section in use");
    }
  }

  AdviseMapping(data, size,
                header->sections[cgraph_internal::kLabelNames].offset);

  // Metadata CRC: header with the crc field zeroed, then every section
  // except the blob (the blob has per-block CRCs, checked at decode).
  Header crc_header = *header;
  crc_header.crc32 = 0;
  io::Crc32 crc;
  crc.Update(&crc_header, sizeof(crc_header));
  for (int s : kPhysicalOrder) {
    if (s == cgraph_internal::kBlocks) continue;
    const SectionRef& ref = header->sections[s];
    if (ref.size > 0) crc.Update(base + ref.offset, ref.size);
  }
  if (crc.Value() != header->crc32) {
    return fail(CGraphErrorCode::kCrcMismatch, "metadata checksum mismatch");
  }

  // Semantic invariants.
  const uint64_t n = header->num_nodes;
  const uint64_t num_blocks = header->num_blocks;
  if (n > static_cast<uint64_t>(INT32_MAX)) {
    return fail(CGraphErrorCode::kMalformed, "node count out of range");
  }
  if (header->num_labels > graph::kMaxLabels) {
    return fail(CGraphErrorCode::kMalformed, "label count out of range");
  }
  if (header->num_labels == 0) {
    // GraphBuilder (and thus every writer input) requires a non-empty label
    // alphabet, so a zero here is corruption even for an empty graph — and
    // rejecting it keeps ToHetGraph() total.
    return fail(CGraphErrorCode::kMalformed, "empty label alphabet");
  }
  if (header->block_target_entries == 0) {
    return fail(CGraphErrorCode::kMalformed, "zero block target");
  }
  if ((n == 0) != (num_blocks == 0)) {
    return fail(CGraphErrorCode::kMalformed, "node/block count mismatch");
  }

  const auto& sections = header->sections;
  if (sections[cgraph_internal::kNodeLabels].size != n ||
      sections[cgraph_internal::kNodeIndex].size !=
          n * sizeof(NodeIndexEntry) ||
      sections[cgraph_internal::kNodeInDegrees].size !=
          (directed ? n * sizeof(uint32_t) : 0) ||
      sections[cgraph_internal::kBlockDir].size !=
          num_blocks * sizeof(BlockRef)) {
    return fail(CGraphErrorCode::kMalformed, "section size mismatch");
  }

  // Label-name table: u32 count, then (u32 length, bytes) per name.
  std::vector<std::string> label_names;
  {
    const SectionRef& ref = sections[cgraph_internal::kLabelNames];
    const uint8_t* p = base + ref.offset;
    const uint8_t* end = p + ref.size;
    const auto read_u32 = [&p, end](uint32_t* value) {
      if (end - p < static_cast<ptrdiff_t>(sizeof(uint32_t))) return false;
      std::memcpy(value, p, sizeof(uint32_t));
      p += sizeof(uint32_t);
      return true;
    };
    uint32_t count = 0;
    if (!read_u32(&count) || count != header->num_labels) {
      return fail(CGraphErrorCode::kMalformed, "label table corrupt");
    }
    label_names.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t length = 0;
      if (!read_u32(&length) ||
          length > static_cast<uint64_t>(end - p)) {
        return fail(CGraphErrorCode::kMalformed, "label table corrupt");
      }
      label_names.emplace_back(reinterpret_cast<const char*>(p), length);
      p += length;
    }
    if (p != end) {
      return fail(CGraphErrorCode::kMalformed, "label table corrupt");
    }
  }

  const uint8_t* labels = base + sections[cgraph_internal::kNodeLabels].offset;
  const auto* index = reinterpret_cast<const NodeIndexEntry*>(
      base + sections[cgraph_internal::kNodeIndex].offset);
  const auto* in_degrees = reinterpret_cast<const uint32_t*>(
      base + sections[cgraph_internal::kNodeInDegrees].offset);
  const auto* block_dir = reinterpret_cast<const BlockRef*>(
      base + sections[cgraph_internal::kBlockDir].offset);

  for (uint64_t v = 0; v < n; ++v) {
    if (labels[v] >= header->num_labels) {
      return fail(CGraphErrorCode::kMalformed, "node label out of range");
    }
  }

  // Block directory: blocks tile the blob contiguously and own strictly
  // increasing, non-empty node ranges.
  const uint64_t blob_size = sections[cgraph_internal::kBlocks].size;
  uint64_t blob_offset = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    const BlockRef& ref = block_dir[b];
    if (ref.offset != blob_offset ||
        ref.encoded_bytes > blob_size - blob_offset) {
      return fail(CGraphErrorCode::kMalformed, "block directory corrupt");
    }
    blob_offset += ref.encoded_bytes;
    const uint32_t prev_first = b == 0 ? 0 : block_dir[b - 1].first_node;
    if (ref.first_node >= n || (b == 0 && ref.first_node != 0) ||
        (b > 0 && ref.first_node <= prev_first)) {
      return fail(CGraphErrorCode::kMalformed, "block node ranges corrupt");
    }
  }
  if (blob_offset != blob_size) {
    return fail(CGraphErrorCode::kMalformed, "blob size mismatch");
  }

  // Node-index walk: within each block's node range, index entries must
  // reference that block at exactly the offset the degree walk predicts.
  // Block decoding relies on this tiling, so it is enforced here, once,
  // instead of per decode.
  uint64_t out_sum = 0;
  uint64_t in_sum = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    const BlockRef& ref = block_dir[b];
    const uint64_t range_end =
        b + 1 < num_blocks ? block_dir[b + 1].first_node : n;
    uint64_t pos = 0;
    for (uint64_t v = ref.first_node; v < range_end; ++v) {
      const NodeIndexEntry& entry = index[v];
      if (entry.block != b || entry.offset != pos) {
        return fail(CGraphErrorCode::kMalformed, "node index corrupt");
      }
      pos += entry.degree;
      out_sum += entry.degree;
      if (directed) {
        pos += in_degrees[v];
        in_sum += in_degrees[v];
      }
    }
    if (pos != ref.entries) {
      return fail(CGraphErrorCode::kMalformed, "block entry count mismatch");
    }
  }
  if (directed) {
    if (out_sum != header->num_edges || in_sum != header->num_edges) {
      return fail(CGraphErrorCode::kMalformed, "arc count mismatch");
    }
  } else {
    if (out_sum != 2 * header->num_edges) {
      return fail(CGraphErrorCode::kMalformed, "edge count mismatch");
    }
  }

  // hsgf-lint: allow(naked-new) private ctor hides make_unique; owned here
  auto graph = std::unique_ptr<CompressedGraph>(new CompressedGraph());
  graph->mapping_ = std::move(mapping);
  graph->file_size_ = size;
  graph->header_ = header;
  graph->blob_ = base + sections[cgraph_internal::kBlocks].offset;
  graph->labels_ = labels;
  graph->index_ = index;
  graph->in_degrees_ = directed ? in_degrees : nullptr;
  graph->block_dir_ = block_dir;
  graph->label_names_ = std::move(label_names);
  const uint64_t block_bytes =
      static_cast<uint64_t>(header->block_target_entries) *
      sizeof(graph::NodeId);
  graph->cache_ = std::make_unique<BlockCache>(
      static_cast<size_t>(options.cache_bytes / block_bytes));
  return graph;
}

// --- Block decoding ---------------------------------------------------------

bool CompressedGraph::DecodeBlockInto(uint32_t block, DecodedBlock* out,
                                      CGraphError* error) const {
  const auto fail = [&](CGraphErrorCode code, const std::string& message) {
    if (error != nullptr) {
      error->code = code;
      error->message = "block " + std::to_string(block) + ": " + message;
    }
    return false;
  };
  if (block >= num_blocks()) {
    return fail(CGraphErrorCode::kMalformed, "block id out of range");
  }
  const BlockRef& ref = block_dir_[block];
  const uint8_t* encoded = blob_ + ref.offset;
  if (io::Crc32Of(encoded, ref.encoded_bytes) != ref.crc32) {
    return fail(CGraphErrorCode::kBlockCrcMismatch, "checksum mismatch");
  }

  out->entries.assign(ref.entries, 0);
  const uint8_t* p = encoded;
  const uint8_t* end = encoded + ref.encoded_bytes;
  uint64_t pos = 0;
  uint64_t v = ref.first_node;
  while (pos < ref.entries) {
    // Open() proved the walk tiles [0, entries) exactly; these guards keep
    // the decoder memory-safe even if that proof is ever weakened.
    if (v >= static_cast<uint64_t>(num_nodes())) {
      return fail(CGraphErrorCode::kMalformed, "node walk escaped block");
    }
    const uint32_t out_run = index_[v].degree;
    const uint32_t in_run = directed() ? in_degrees_[v] : 0;
    if (static_cast<uint64_t>(out_run) + in_run > ref.entries - pos) {
      return fail(CGraphErrorCode::kMalformed, "run overflows block");
    }
    // The delta chain resets per run: out-neighbors, then (if directed)
    // in-neighbors, each starting from an implicit 0.
    if (!DecodeAdjacency(&p, end, out_run, out->entries.data() + pos)) {
      return fail(CGraphErrorCode::kMalformed, "truncated adjacency run");
    }
    pos += out_run;
    if (in_run > 0) {
      if (!DecodeAdjacency(&p, end, in_run, out->entries.data() + pos)) {
        return fail(CGraphErrorCode::kMalformed, "truncated adjacency run");
      }
      pos += in_run;
    }
    ++v;
  }
  if (p != end) {
    return fail(CGraphErrorCode::kMalformed, "trailing bytes after last run");
  }
  for (graph::NodeId id : out->entries) {
    if (id >= num_nodes()) {
      return fail(CGraphErrorCode::kMalformed, "neighbor id out of range");
    }
  }
  return true;
}

std::shared_ptr<const DecodedBlock> CompressedGraph::GetBlock(
    uint32_t block) const {
  HSGF_DCHECK_LT(block, num_blocks());
  return cache_->Get(block, [this](uint32_t b) {
    auto decoded = std::make_shared<DecodedBlock>();
    CGraphError error;
    HSGF_CHECK(DecodeBlockInto(b, decoded.get(), &error))
        << "cgraph corrupted after open: " << error.ToString();
    return decoded;
  });
}

bool CompressedGraph::VerifyBlock(uint32_t block, CGraphError* error) const {
  DecodedBlock scratch;
  return DecodeBlockInto(block, &scratch, error);
}

void CompressedGraph::AttachMetrics(util::MetricsRegistry* registry) {
  registry_ = registry;
  cache_->AttachMetrics(registry);
  if (registry == nullptr) {
    prefetch_issued_ = util::kInvalidMetric;
    return;
  }
  registry->SetGauge(registry->Gauge("gstore.bytes_mapped"),
                     static_cast<double>(file_size_));
  registry->SetGauge(registry->Gauge("gstore.blocks_total"),
                     static_cast<double>(num_blocks()));
  prefetch_issued_ = registry->Counter("gstore.prefetch_issued");
}

void CompressedGraph::PrefetchBlock(uint32_t block) const {
  if (block >= num_blocks()) return;
  const BlockRef& ref = block_dir_[block];
  if (ref.encoded_bytes == 0) return;
  // Page-round the block's compressed range within the mapping; WILLNEED is
  // a hint, so a failure (e.g. on an exotic filesystem) is simply ignored.
  auto* base = static_cast<uint8_t*>(mapping_->data);
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t begin =
      static_cast<uint64_t>(blob_ - base) + ref.offset;
  const uint64_t aligned = begin & ~static_cast<uint64_t>(page - 1);
  const uint64_t end = begin + ref.encoded_bytes;
  ::madvise(base + aligned, static_cast<size_t>(end - aligned),
            MADV_WILLNEED);
  if (registry_ != nullptr) registry_->Increment(prefetch_issued_);
}

graph::HetGraph CompressedGraph::ToHetGraph() const {
  HSGF_CHECK(!directed());
  graph::GraphBuilder builder(label_names_);
  for (graph::NodeId v = 0; v < num_nodes(); ++v) {
    builder.AddNode(label(v));
  }
  // Block-sequential: stream the blob once, adding each edge from its lower
  // endpoint. The builder re-sorts adjacency exactly as the original
  // GraphBuilder did, so the round trip is bit-identical.
  DecodedBlock block;
  for (uint32_t b = 0; b < num_blocks(); ++b) {
    CGraphError error;
    HSGF_CHECK(DecodeBlockInto(b, &block, &error)) << error.ToString();
    const BlockRef& ref = block_dir_[b];
    uint64_t pos = 0;
    graph::NodeId v = static_cast<graph::NodeId>(ref.first_node);
    while (pos < ref.entries) {
      const uint32_t run = index_[v].degree;
      for (uint32_t i = 0; i < run; ++i) {
        const graph::NodeId y = block.entries[pos + i];
        if (v < y) builder.AddEdge(v, y);
      }
      pos += run;
      ++v;
    }
  }
  return std::move(builder).Build();
}

}  // namespace hsgf::gstore

namespace hsgf::core {

// Home of the paged-graph worker instantiations, mirroring census.cc /
// extractor.cc for the CSR types.
template class BasicCensusWorker<gstore::GraphView>;
template class BasicCensusWorker<gstore::DirectedGraphView>;
template class BasicExtractor<gstore::CompressedGraph>;

}  // namespace hsgf::core
