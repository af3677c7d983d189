// CSR data graph.
//
// Undirected graphs are stored with both edge directions; neighbor lists are
// sorted ascending so the set-operation kernels can use merge/binary-search.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "util/check.hpp"

namespace stm {

/// Immutable undirected graph in CSR form with optional vertex labels.
class Graph {
 public:
  Graph() = default;

  /// Builds from a (deduplicated, symmetric, sorted) CSR. Use GraphBuilder
  /// for arbitrary edge lists; this constructor validates its input.
  Graph(std::vector<EdgeId> row_ptr, std::vector<VertexId> col_idx,
        std::vector<Label> labels = {});

  VertexId num_vertices() const {
    return row_ptr_.empty() ? 0 : static_cast<VertexId>(row_ptr_.size() - 1);
  }
  /// Number of undirected edges (each stored twice internally).
  EdgeId num_edges() const { return col_idx_.size() / 2; }
  /// Number of directed adjacency entries (2 × num_edges()).
  EdgeId num_adjacency_entries() const { return col_idx_.size(); }

  EdgeId degree(VertexId v) const {
    STM_CHECK(v < num_vertices());
    return row_ptr_[v + 1] - row_ptr_[v];
  }

  /// Sorted neighbor list of v.
  std::span<const VertexId> neighbors(VertexId v) const {
    STM_CHECK(v < num_vertices());
    return {col_idx_.data() + row_ptr_[v],
            static_cast<std::size_t>(row_ptr_[v + 1] - row_ptr_[v])};
  }

  /// O(log deg) adjacency test.
  bool has_edge(VertexId u, VertexId v) const;

  bool is_labeled() const { return !labels_.empty(); }
  Label label(VertexId v) const {
    STM_CHECK(v < num_vertices());
    return labels_.empty() ? Label{0} : labels_[v];
  }
  /// Number of distinct labels (1 if unlabeled).
  std::size_t num_labels() const;

  EdgeId max_degree() const;

  /// Resident heap footprint of the CSR arrays in bytes (capacity, not size:
  /// what the allocator actually holds). Feeds the spill tier's budget
  /// comparisons and the service's graph_resident_bytes gauge.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(row_ptr_.capacity()) * sizeof(EdgeId) +
           static_cast<std::uint64_t>(col_idx_.capacity()) * sizeof(VertexId) +
           static_cast<std::uint64_t>(labels_.capacity()) * sizeof(Label);
  }

  const std::vector<EdgeId>& row_ptr() const { return row_ptr_; }
  const std::vector<VertexId>& col_idx() const { return col_idx_; }
  const std::vector<Label>& labels() const { return labels_; }

  /// Returns a copy of this graph with `labels` attached.
  Graph with_labels(std::vector<Label> labels) const;

 private:
  std::vector<EdgeId> row_ptr_;
  std::vector<VertexId> col_idx_;
  std::vector<Label> labels_;  // empty = unlabeled
};

/// The disjoint union of a and b: b's vertices are shifted past a's, no
/// edges cross. Labeled when either input is labeled (the unlabeled side
/// keeps implicit label 0, matching Graph::label). Counts of connected
/// patterns are additive over the union — the metamorphic relation the
/// conformance harness checks.
Graph disjoint_union(const Graph& a, const Graph& b);

/// Structural equality: identical CSR arrays and identical effective labels
/// (an unlabeled graph equals an all-zero-labeled one, matching
/// Graph::label). Used by the durability layer to verify that a recovered
/// graph is bit-identical to the state it was serialized from.
bool graphs_equal(const Graph& a, const Graph& b);

/// Incremental, order-insensitive construction of an undirected Graph.
/// Self-loops are dropped; duplicate edges are deduplicated.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices = 0) : n_(num_vertices) {}

  /// Adds an undirected edge; vertices beyond the current count grow the
  /// graph. Self-loops are silently ignored.
  void add_edge(VertexId u, VertexId v);

  void set_num_vertices(VertexId n);
  VertexId num_vertices() const { return n_; }

  /// Finalizes into a CSR graph. The builder is left empty.
  Graph build();

 private:
  VertexId n_ = 0;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace stm
