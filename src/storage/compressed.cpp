#include "storage/compressed.hpp"

#include <algorithm>

namespace stm::storage {

CompressedGraph::CompressedGraph(const Graph& g, std::uint32_t block_size)
    : n_(g.num_vertices()),
      m2_(g.num_adjacency_entries()),
      block_size_(block_size) {
  STM_CHECK(block_size_ > 0);
  offsets_.resize(static_cast<std::size_t>(n_) + 1, 0);
  degrees_.resize(n_, 0);
  if (g.is_labeled()) labels_ = g.labels();
  for (VertexId v = 0; v < n_; ++v) {
    const auto nbrs = g.neighbors(v);
    degrees_[v] = static_cast<std::uint32_t>(nbrs.size());
    encode_adjacency(nbrs.data(), nbrs.size(), block_size_, blob_);
    offsets_[v + 1] = blob_.size();
  }
  blob_.shrink_to_fit();
}

void CompressedGraph::decode_into(VertexId v, std::vector<VertexId>& out) const {
  ListCursor c = cursor(v);
  c.decode_remaining(out);
}

bool CompressedGraph::has_edge(VertexId u, VertexId v) const {
  STM_CHECK(u < n_ && v < n_);
  // Seek on the lower-degree endpoint.
  if (degrees_[v] < degrees_[u]) std::swap(u, v);
  ListCursor c = cursor(u);
  c.seek_at_least(v);
  return !c.done() && c.value() == v;
}

CompressedStats CompressedGraph::stats() const {
  CompressedStats s;
  s.raw_bytes = (static_cast<std::uint64_t>(n_) + 1) * sizeof(EdgeId) +
                static_cast<std::uint64_t>(m2_) * sizeof(VertexId) +
                (labels_.empty() ? 0 : static_cast<std::uint64_t>(n_));
  s.blob_bytes = blob_.capacity();
  s.index_bytes = offsets_.capacity() * sizeof(std::uint64_t) +
                  degrees_.capacity() * sizeof(std::uint32_t) +
                  labels_.capacity() * sizeof(Label);
  return s;
}

}  // namespace stm::storage
