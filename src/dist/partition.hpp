// Graph partitioning for the sharded execution subsystem (DESIGN.md §11).
//
// A Partition splits the data graph's vertex set into disjoint ownership
// ranges ("shards") and materializes each shard's `local` graph: the induced
// subgraph on its owned vertices, as a standalone CSR Graph plus a vertex
// remap, so every existing engine (SIMT, host, recursive, reference) runs on
// a shard unchanged via GraphView. Enumerating on `local` counts exactly the
// matches whose vertices are all owned by the shard (the Σ-term of the
// sharded count decomposition).
// Edges whose endpoints live in different shards are *cut edges*; each is
// owned by the smaller of its two endpoint shards (the min-shard rule), the
// ownership-based deduplication that makes the cross-shard count exact.
//
// Strategies: contiguous vertex ranges, degree-balanced greedy (LPT over the
// degree sequence), hash (splitmix64 ownership), and interleaved (v mod S,
// the paper's Fig. 11 outer-loop division).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/degree_stats.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"

namespace stm {
struct DeltaEdges;  // dynamic/dynamic_graph.hpp
}

namespace stm::dist {

enum class PartitionStrategy : std::uint8_t {
  kContiguous = 0,     // vertex ranges [n*s/S, n*(s+1)/S)
  kDegreeBalanced,     // greedy LPT over the degree sequence
  kHash,               // splitmix64(v ^ salt) % S
  kInterleaved,        // v % S (paper Fig. 11 outer-loop division)
};
inline constexpr std::size_t kNumPartitionStrategies = 4;

const char* to_string(PartitionStrategy s);
/// Inverse of to_string; throws check_error on unknown names.
PartitionStrategy partition_strategy_from_string(const std::string& name);

struct PartitionConfig {
  std::uint32_t num_shards = 1;
  PartitionStrategy strategy = PartitionStrategy::kContiguous;
  /// Salt of the kHash strategy (distinct salts give distinct partitions).
  std::uint64_t hash_salt = 0;
};

/// One shard: an ownership range materialized as a standalone graph.
struct Shard {
  std::uint32_t id = 0;
  /// Induced subgraph on the owned vertices (local ids, labels preserved).
  Graph local;
  /// Local id -> global id for `local` (ascending).
  std::vector<VertexId> to_global;
  /// Cut edges owned by this shard under the min-shard rule (global ids,
  /// u < v, sorted).
  std::vector<std::pair<VertexId, VertexId>> cut_edges;

  VertexId num_owned() const {
    return static_cast<VertexId>(to_global.size());
  }
};

/// A full ownership assignment plus the shard graphs.
/// Shards are shared_ptrs so an incremental refresh after a dynamic update
/// batch copies only the shards the batch touched.
struct Partition {
  PartitionConfig config;
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;
  /// Global vertex -> owning shard.
  std::vector<std::uint32_t> owner;
  std::vector<std::shared_ptr<const Shard>> shards;
  /// All cut edges in owner-major order (shard 0's cut edges first, each
  /// owner's block sorted by (u, v)). This order only decides which edges
  /// share a cut-term chunk; the count itself orders cut edges by their
  /// (u, v) pair (dist/sharded.hpp).
  std::vector<std::pair<VertexId, VertexId>> cut_edges;

  std::uint32_t num_shards() const { return config.num_shards; }
  std::uint32_t owner_of(VertexId v) const { return owner[v]; }
  /// Min-shard ownership rule for a cut edge.
  std::uint32_t cut_owner(VertexId u, VertexId v) const {
    return std::min(owner[u], owner[v]);
  }
  /// Balance report over the current ownership (delegates to
  /// graph/degree_stats).
  BalanceReport balance(const Graph& g) const;
};

/// Assigns every vertex of `g` an owner and materializes the shards. `g` is
/// any adjacency view: a CSR Graph converts implicitly, and a session passes
/// its snapshot's view (hold the snapshot's storage lease for the call).
/// num_shards >= 1; shards may be empty when num_shards > num_vertices.
Partition partition_graph(GraphView g, const PartitionConfig& cfg);

/// Rebuilds the shards affected by a dynamic update delta, reading the new
/// adjacency from `view` (the post-apply snapshot view). Ownership is sticky
/// (vertices never migrate) and a shard's local graph and cut edges depend
/// only on its owned vertices' adjacency, so exactly the shards owning a
/// delta endpoint are rebuilt; all other shards are shared with the input
/// partition. Returns the refreshed partition and reports the rebuilt shard
/// ids, ascending, through `touched` (optional).
Partition refresh_partition(const Partition& p, GraphView view,
                            const DeltaEdges& delta,
                            std::vector<std::uint32_t>* touched = nullptr);

}  // namespace stm::dist
