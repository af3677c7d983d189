// Snapshot-backed adjacency view.
//
// GraphView is the adjacency interface the engines execute against: a
// non-owning handle over a base adjacency provider plus, optionally, one
// page table that remaps individual vertices to merged neighbor lists. The
// base is either a raw CSR (a plain Graph converts implicitly, so every
// existing engine call site keeps working) or an AdjacencySource — the seam
// the storage subsystem plugs compressed and spill backends into
// without any engine knowing which representation it is reading.
//
// The dynamic-graph subsystem builds its versions as the base plus one
// copy-on-write AdjPage per kAdjPageSize vertices (GraphSnapshot, GraphEdit):
// a version's view reads a dirty vertex from its page and every other vertex
// from the base, without rebuilding the CSR. A compact version has no page
// table at all.
//
// A view is valid only while its backing storage (the Graph or
// AdjacencySource, and the snapshot or edit that owns the page table) stays
// alive; views are cheap value types meant to be created per engine run.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/check.hpp"

namespace stm {

/// Abstract adjacency provider a GraphView can read instead of a raw CSR.
/// Implementations must return sorted-ascending neighbor spans that stay
/// valid for the lifetime of the source (or, for storage backends, for the
/// duration of an outstanding decode lease — see src/storage/store.hpp).
class AdjacencySource {
 public:
  virtual ~AdjacencySource() = default;

  virtual VertexId source_num_vertices() const = 0;
  /// Sorted neighbor list of v. May decode/materialize on first access.
  virtual std::span<const VertexId> source_neighbors(VertexId v) const = 0;
  /// Degree without materializing the list.
  virtual EdgeId source_degree(VertexId v) const = 0;
  /// Adjacency test without materializing the list (an anchored seek on
  /// compressed backends).
  virtual bool source_has_edge(VertexId u, VertexId v) const = 0;
  /// Directed adjacency entries (2 x undirected edges).
  virtual EdgeId source_num_adjacency_entries() const = 0;
  /// Raw label array (nullptr when unlabeled).
  virtual const Label* source_labels() const = 0;
};

/// Vertices per adjacency page of a graph version.
inline constexpr VertexId kAdjPageSize = 64;

/// The merged adjacency of the dirty vertices among kAdjPageSize consecutive
/// ids. Vertex page * kAdjPageSize + i is dirty when bit i of `dirty` is set,
/// and its sorted list is adj[offsets[i], offsets[i + 1]); a clean vertex has
/// an empty range and reads the base. The dirty lists sit back to back in one
/// array, so copying a page copies one array, not one list per vertex.
struct AdjPage {
  std::uint64_t dirty = 0;
  std::array<EdgeId, kAdjPageSize + 1> offsets{};
  std::vector<VertexId> adj;

  bool has(VertexId slot) const { return ((dirty >> slot) & 1u) != 0; }
  std::span<const VertexId> list(VertexId slot) const {
    return {adj.data() + offsets[slot],
            static_cast<std::size_t>(offsets[slot + 1] - offsets[slot])};
  }
};

class GraphView {
 public:
  GraphView() = default;

  /// Implicit: a plain CSR graph with no overrides.
  GraphView(const Graph& g)  // NOLINT(google-explicit-constructor)
      : row_ptr_(g.row_ptr().data()),
        col_idx_(g.col_idx().data()),
        labels_(g.is_labeled() ? g.labels().data() : nullptr),
        n_(g.num_vertices()) {}

  /// A view over an abstract adjacency source (storage backend).
  explicit GraphView(const AdjacencySource& src)
      : labels_(src.source_labels()),
        n_(src.source_num_vertices()),
        source_(&src) {}

  /// This view's base with `pages` in front of it: one entry per
  /// kAdjPageSize vertices, null where no vertex of the page is dirty, or no
  /// entry at all. The table is borrowed, not copied.
  GraphView with_pages(
      const std::vector<std::shared_ptr<const AdjPage>>& pages) const {
    GraphView paged = *this;
    paged.pages_ = pages.empty() ? nullptr : pages.data();
    return paged;
  }

  VertexId num_vertices() const { return n_; }

  /// Sorted neighbor list of v, read from its page when v is dirty.
  std::span<const VertexId> neighbors(VertexId v) const {
    STM_CHECK(v < n_);
    if (const AdjPage* page = page_of(v)) return page->list(v % kAdjPageSize);
    if (source_ != nullptr) return source_->source_neighbors(v);
    return {col_idx_ + row_ptr_[v],
            static_cast<std::size_t>(row_ptr_[v + 1] - row_ptr_[v])};
  }

  /// Degree of v; on a storage-backed base this avoids materializing the
  /// neighbor list.
  EdgeId degree(VertexId v) const {
    STM_CHECK(v < n_);
    if (page_of(v) != nullptr || source_ == nullptr)
      return neighbors(v).size();
    return source_->source_degree(v);
  }

  /// Adjacency test: O(log deg) on raw/paged lists; an anchored seek on
  /// storage-backed bases.
  bool has_edge(VertexId u, VertexId v) const {
    STM_CHECK(u < n_);
    if (source_ != nullptr && page_of(u) == nullptr) {
      return source_->source_has_edge(u, v);
    }
    const auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
  }

  bool is_labeled() const { return labels_ != nullptr; }
  Label label(VertexId v) const {
    STM_CHECK(v < n_);
    return labels_ == nullptr ? Label{0} : labels_[v];
  }
  /// Raw label array for LabelFilter (nullptr when unlabeled).
  const Label* labels_data() const { return labels_; }

  /// O(n) scan (used once per engine run for stats).
  EdgeId max_degree() const {
    EdgeId best = 0;
    for (VertexId v = 0; v < n_; ++v) best = std::max(best, degree(v));
    return best;
  }

  /// Directed adjacency entries (2 x undirected edges); O(n) when paged.
  EdgeId num_adjacency_entries() const {
    if (pages_ == nullptr) {
      if (source_ != nullptr) return source_->source_num_adjacency_entries();
      if (n_ > 0) return row_ptr_[n_];
    }
    EdgeId total = 0;
    for (VertexId v = 0; v < n_; ++v) total += degree(v);
    return total;
  }

 private:
  /// The page holding v's merged list, or null when v reads the base.
  const AdjPage* page_of(VertexId v) const {
    if (pages_ == nullptr) return nullptr;
    const AdjPage* page = pages_[v / kAdjPageSize].get();
    return page != nullptr && page->has(v % kAdjPageSize) ? page : nullptr;
  }

  const EdgeId* row_ptr_ = nullptr;
  const VertexId* col_idx_ = nullptr;
  const Label* labels_ = nullptr;
  VertexId n_ = 0;
  const std::shared_ptr<const AdjPage>* pages_ = nullptr;  // null = no pages
  const AdjacencySource* source_ = nullptr;  // consulted after the pages
};

}  // namespace stm
