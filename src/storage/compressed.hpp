// Compressed in-memory adjacency: one delta/varint blob.
//
// CompressedGraph holds every neighbor list in one contiguous encoded blob
// (per-vertex slices located by a u64 offset array; format in encoding.hpp).
//
// The structure is immutable after build and safe for concurrent readers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "storage/encoding.hpp"

namespace stm::storage {

/// Footprint breakdown of one compressed graph (bytes are actual resident
/// heap, i.e. vector capacities).
struct CompressedStats {
  std::uint64_t raw_bytes = 0;      // what the uncompressed CSR would hold
  std::uint64_t blob_bytes = 0;     // varint payload + anchor tables
  std::uint64_t index_bytes = 0;    // offsets + degrees + labels

  std::uint64_t total_bytes() const { return blob_bytes + index_bytes; }
  /// raw / compressed; > 1 means the encoding won.
  double compression_ratio() const {
    const std::uint64_t t = total_bytes();
    return t == 0 ? 1.0 : static_cast<double>(raw_bytes) / static_cast<double>(t);
  }
};

class CompressedGraph {
 public:
  CompressedGraph() = default;

  /// Encodes `g` with `block_size` neighbors per skip-anchor block.
  CompressedGraph(const Graph& g, std::uint32_t block_size);

  VertexId num_vertices() const { return n_; }
  EdgeId num_adjacency_entries() const { return m2_; }
  std::uint32_t block_size() const { return block_size_; }
  EdgeId degree(VertexId v) const {
    STM_CHECK(v < n_);
    return degrees_[v];
  }
  bool is_labeled() const { return !labels_.empty(); }
  const Label* labels_data() const {
    return labels_.empty() ? nullptr : labels_.data();
  }

  /// Encoded byte slice of v's list.
  std::pair<const std::uint8_t*, const std::uint8_t*> list_bytes(
      VertexId v) const {
    STM_CHECK(v < n_);
    return {blob_.data() + offsets_[v], blob_.data() + offsets_[v + 1]};
  }

  /// Cursor over v's encoded list.
  ListCursor cursor(VertexId v) const {
    auto [b, e] = list_bytes(v);
    return ListCursor(b, e, block_size_);
  }

  /// Appends v's sorted neighbors to `out`.
  void decode_into(VertexId v, std::vector<VertexId>& out) const;

  /// Adjacency test without materializing either list: an anchored seek on
  /// the lower-degree endpoint (undirected symmetry).
  bool has_edge(VertexId u, VertexId v) const;

  CompressedStats stats() const;

 private:
  VertexId n_ = 0;
  EdgeId m2_ = 0;  // directed adjacency entries
  std::uint32_t block_size_ = kDefaultBlockSize;
  std::vector<std::uint8_t> blob_;
  std::vector<std::uint64_t> offsets_;   // n+1; slice of v = [off[v], off[v+1])
  std::vector<std::uint32_t> degrees_;   // n
  std::vector<Label> labels_;            // empty = unlabeled
};

}  // namespace stm::storage
