// Cross-shard coordinator: exact pattern counts over a partitioned graph.
//
// Order the cut edges (endpoints owned by different shards) by their
// normalised pair (min, max). With G_intra = G minus all cut edges,
//
//   count(G) = Σ_s count(shard_s.local)
//            + Σ_c |embeddings in G containing cut edge c and no cut edge
//                   ordered after c|
//
// The first term: G_intra is the disjoint union of the shard-local graphs,
// and counts of connected patterns are additive over a disjoint union, so
// every existing engine runs each shard's standalone `local` Graph
// unchanged. The second term counts every embedding missing from G_intra
// exactly once, at the largest cut edge it contains. Any fixed total order
// would do; this one needs no sort, and "is this edge later" is one owner
// comparison and one integer compare. The standing-query trie walk
// (mqo/evaluator.hpp) counts the term over a one-registration PatternIndex,
// anchored at c over G itself with the partition's owner map. The
// registration counts embeddings; for kUniqueSubgraphs the cut term is
// divided by |Aut(pattern)| (cut-containing embeddings are closed under
// automorphisms). Vertex-induced matching is rejected for more than one
// shard — an induced match can cross shards without containing any cut edge
// via a non-edge constraint — the same reason the standing index rejects it.
//
// The cut edges are walked in chunks of 16 consecutive entries of
// Partition::cut_edges so the shard scheduler can steal them; no graph is
// built per query, and every unit reads the same `g`. Chunks and
// shard-local runs are retryable units under the kShardFailure fault site,
// keyed by unit identity with per-attempt incarnation bumps — the engines'
// own unit-recovery scheme, one level up.
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
  /// reorder_for_matching(pattern) with opts.plan. The shard-local units
  /// run with the engine configurations `host` and `simt`. `attempt`
  /// offsets the fault incarnation (the service bumps it per engine retry).
  /// A non-null `cancel` token is polled before each unit attempt and inside
  /// the inner engines; once it fires, the result carries its status and
  /// `error` reads "sharded units stopped: <status> (count is partial)".
  /// Throws check_error for vertex-induced options on > 1 shard and for a
  /// labeled pattern over an unlabeled graph.
  ShardedResult match(GraphView g, const Partition& partition,
                      const MatchingPlan& local_plan,
                      const HostEngineConfig& host, const EngineConfig& simt,
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
/// and runs a ShardedMatcher with the given engine configurations.
ShardedResult sharded_match(const Graph& g, const Pattern& pattern,
                            const PartitionConfig& partition,
                            const ShardedOptions& opts = {},
                            const HostEngineConfig& host = {},
                            const EngineConfig& simt = {});

}  // namespace stm::dist
