// Cross-shard coordinator: exact pattern counts over a partitioned graph.
//
// The global count decomposes over a partition's fixed cut-edge order
// c_1..c_m (owner-major, see partition.hpp). With G_intra = G minus all cut
// edges,
//
//   count(G) = Σ_s count(shard_s.local)
//            + Σ_i |embeddings containing c_i in G_intra + {c_1..c_i}|
//
// The first term: G_intra is the disjoint union of the shard-local graphs,
// and counts of connected patterns are additive over a disjoint union, so
// every existing engine runs each shard's standalone `local` Graph
// unchanged. The second term is the prefix inclusion–exclusion identity the
// standing queries use for delta edges (every embedding missing from
// G_intra contains at least one cut edge and is counted exactly once, at the
// largest-index cut edge it contains), counted by the standing-query trie
// walk (mqo/evaluator.hpp) over a one-registration PatternIndex. The
// registration counts embeddings; for kUniqueSubgraphs the cut term is
// divided by |Aut(pattern)| (cut-containing embeddings are closed under
// automorphisms). Vertex-induced matching is rejected for more than one
// shard — an induced match can cross shards without containing any cut edge
// via a non-edge constraint — the same reason the standing index rejects it.
//
// Cut edges are processed in chunks of 16 so the shard scheduler can steal
// them: chunk k runs against a checkpoint snapshot (G_intra plus all edges of
// chunks < k) and adds its own edges in order with a GraphEdit. One GraphEdit
// builds the whole checkpoint chain, publishing once per chunk, so a
// checkpoint costs the adjacency pages its chunk's endpoints fall on.
// Chunks and shard-local runs are retryable units under the kShardFailure
// fault site, keyed by unit identity with per-attempt incarnation bumps —
// PR 2's recovery scheme, one level up.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/fault.hpp"
#include "core/host_engine.hpp"
#include "core/query_stats.hpp"
#include "core/run.hpp"
#include "dist/partition.hpp"
#include "mqo/pattern_index.hpp"
#include "pattern/pattern.hpp"
#include "pattern/plan.hpp"

namespace stm::dist {

struct ShardedOptions {
  /// Matching semantics. induced must be kEdge when the partition has more
  /// than one shard.
  PlanOptions plan;
  /// Engine of the shard-local units, which run through run_engine (the
  /// cut-edge term always runs the standing-query trie walk).
  EngineKind engine = EngineKind::kHost;
  /// Inner-engine configurations.
  HostEngineConfig host;
  EngineConfig simt;
  /// Scheduler workers (0 = one per shard).
  std::uint32_t num_workers = 0;
  /// Chaos schedule for FaultSite::kShardFailure (and, via incarnation
  /// bumps, the inner engines' own sites).
  FaultConfig fault;
};

/// Per-shard outcome of one sharded match.
struct ShardStats {
  std::uint32_t shard = 0;
  VertexId owned_vertices = 0;
  /// Embedding/subgraph count of the shard-local term (requested mode).
  std::uint64_t local_count = 0;
  std::uint64_t cut_edges_owned = 0;
  /// Execution attempts of the shard-local unit (1 = no retries).
  std::uint32_t attempts = 0;
  QueryStats query;
};

struct ShardedResult {
  QueryStatus status = QueryStatus::kOk;
  /// Exact global count in the requested CountMode (valid when status kOk).
  std::uint64_t count = 0;
  /// Σ shard-local counts (requested mode).
  std::uint64_t local_total = 0;
  /// Cut-edge term after automorphism division (requested mode).
  std::uint64_t cut_total = 0;
  std::uint64_t cut_edges = 0;
  /// Third-level steals (whole units run by a foreign shard's worker).
  std::uint64_t chunk_steals = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t units_recovered = 0;
  /// Balance gauges of the partition used (max/mean ratios).
  double vertex_imbalance = 1.0;
  double cut_fraction = 0.0;
  double wall_ms = 0.0;
  std::vector<ShardStats> shards;
  std::string error;
};

/// Registers the pattern's anchored paths (and |Aut|) once; the shard-local
/// MatchingPlan is passed per match() call so a session-level plan cache can
/// be shared across shards and epochs.
class ShardedMatcher {
 public:
  /// Throws check_error for patterns with no vertices. The pattern is
  /// registered only for edge-induced options and patterns with >= 2
  /// vertices (otherwise the cut term is zero / unsupported, checked at
  /// match()).
  ShardedMatcher(const Pattern& pattern, const ShardedOptions& opts);

  /// Exact count over `partition` of the graph version `g`. `g` must be the
  /// adjacency the partition was built from (the service bundles snapshot +
  /// partition) and `local_plan` a plan compiled from
  /// reorder_for_matching(pattern) with opts.plan. `attempt` offsets the
  /// fault incarnation (the service bumps it per engine retry). A non-null
  /// `cancel` token is polled before each cut-term checkpoint is built,
  /// between units and inside the inner engines; when it fires before the
  /// checkpoints are complete, no unit runs. Every non-kOk result names its
  /// status in `error`.
  /// Throws check_error for vertex-induced options on > 1 shard and for a
  /// labeled pattern over an unlabeled graph.
  ShardedResult match(GraphView g, const Partition& partition,
                      const MatchingPlan& local_plan,
                      std::uint64_t attempt = 0,
                      const CancelToken* cancel = nullptr) const;

  const Pattern& pattern() const { return pattern_; }
  const ShardedOptions& options() const { return opts_; }
  /// |Aut(pattern)|: the embeddings-per-subgraph factor of the cut term.
  std::uint64_t automorphisms() const {
    return cut_index_.empty() ? 1 : cut_index_.automorphisms(kCutQuery);
  }

 private:
  static constexpr std::uint64_t kCutQuery = 0;

  Pattern pattern_;
  ShardedOptions opts_;
  /// The pattern as registration kCutQuery, counting embeddings; empty for
  /// single-vertex patterns and vertex-induced options.
  mqo::PatternIndex cut_index_;
};

/// Convenience one-shot wrapper: partitions `g`, compiles the local plan,
/// and runs a ShardedMatcher.
ShardedResult sharded_match(const Graph& g, const Pattern& pattern,
                            const PartitionConfig& partition,
                            const ShardedOptions& opts = {});

}  // namespace stm::dist
