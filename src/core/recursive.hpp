// Sequential recursive plan executor.
//
// A direct recursive rendering of Algorithm 1 driven by the same
// MatchingPlan as the stack engine (candidate chains, code motion, label
// masks, symmetry constraints). It backs three consumers:
//   * the host-parallel engine (real std::thread execution),
//   * the Dryadic-style CPU baseline (scalar cost accounting),
//   * the per-level workload profile behind the cuTS/GSI models.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/cancel.hpp"
#include "graph/view.hpp"
#include "pattern/plan.hpp"

namespace stm {

/// Scalar work counters (one unit ~ one element touched by a set operation).
struct RecursiveCounters {
  /// Elements processed by set operations/copies (merge cost |a|+|b|).
  std::uint64_t scalar_ops = 0;
  /// Set materializations performed.
  std::uint64_t sets_built = 0;
  /// Per-level statistics for the subgraph-centric models:
  /// partials[l] = valid partial embeddings of length l+1;
  /// extension_work[l] = scalar ops spent extending to level l.
  std::array<std::uint64_t, kMaxPatternSize> partials{};
  std::array<std::uint64_t, kMaxPatternSize> extension_work{};

  RecursiveCounters& operator+=(const RecursiveCounters& o) {
    scalar_ops += o.scalar_ops;
    sets_built += o.sets_built;
    for (std::size_t i = 0; i < kMaxPatternSize; ++i) {
      partials[i] += o.partials[i];
      extension_work[i] += o.extension_work[i];
    }
    return *this;
  }
};

/// Executes the plan over outer-loop vertices [v_begin, v_end).
/// Counters may be null. A non-null `cancel` token is polled inside the
/// enumeration; when it fires the partial count found so far is returned
/// (the caller inspects the token to distinguish completion from
/// interruption).
std::uint64_t recursive_count_range(GraphView g, const MatchingPlan& plan,
                                    VertexId v_begin, VertexId v_end,
                                    RecursiveCounters* counters = nullptr,
                                    const CancelToken* cancel = nullptr);

/// Callback receiving one embedding: mapping[i] = data vertex matched to
/// query vertex i (of the reordered pattern). The executor reuses one
/// buffer for every call, so copy what must outlive it. Return false to
/// stop the enumeration early.
using EmbeddingVisitor = std::function<bool(const std::vector<VertexId>&)>;

/// Visitor of a stream producer: appends each embedding to the flat `batch`
/// (k vertices per embedding, core/emit.hpp) and stops the enumeration once
/// it has taken `room` of them, counting `room` down.
struct AppendToBatch {
  std::vector<VertexId>& batch;
  std::uint64_t& room;
  bool operator()(const std::vector<VertexId>& mapping) const {
    batch.insert(batch.end(), mapping.begin(), mapping.end());
    return --room > 0;
  }
};

/// Like recursive_count_range but invokes `visit` per embedding; stops early
/// when the visitor returns false. Returns the number of embeddings visited.
/// Counters and cancel behave as in recursive_count_range; when the token
/// fires, the embeddings already visited form a valid prefix of the full
/// DFS-order enumeration.
std::uint64_t recursive_enumerate_range(GraphView g, const MatchingPlan& plan,
                                        VertexId v_begin, VertexId v_end,
                                        const EmbeddingVisitor& visit,
                                        RecursiveCounters* counters = nullptr,
                                        const CancelToken* cancel = nullptr);

/// Seek walk: invokes `visit` on the embeddings of outer vertex after[0]
/// that come strictly after `after` (a plan-order tuple of plan.size()
/// vertices) in DFS order. It is the paper's explicit stack (§IV) used as a
/// resumable state: every level on after's path starts at
/// lower_bound(after[l]) of its candidate list, so the walk touches none of
/// the subtree before `after`. `after` need not be an embedding; the walk
/// then yields the embeddings lexicographically greater than it. Stops
/// early, counts and polls `cancel` as recursive_enumerate_range does.
std::uint64_t recursive_enumerate_after(GraphView g, const MatchingPlan& plan,
                                        const std::vector<VertexId>& after,
                                        const EmbeddingVisitor& visit,
                                        RecursiveCounters* counters = nullptr,
                                        const CancelToken* cancel = nullptr);

/// Executes the plan with levels 0 and 1 pre-matched to (v0, v1): the
/// edge-based work decomposition used by Dryadic-style CPU systems.
/// (v0, v1) must satisfy the level-0/1 filters; returns the match count
/// under that prefix.
std::uint64_t recursive_count_seed(GraphView g, const MatchingPlan& plan,
                                   VertexId v0, VertexId v1,
                                   RecursiveCounters* counters = nullptr);

/// Seed-anchored enumeration: like recursive_count_seed but invokes `visit`
/// per embedding (DFS order under the fixed (v0, v1) prefix). Backs the
/// standing-query delta streams, which anchor one enumeration per delta
/// edge.
std::uint64_t recursive_enumerate_seed(GraphView g, const MatchingPlan& plan,
                                       VertexId v0, VertexId v1,
                                       const EmbeddingVisitor& visit,
                                       RecursiveCounters* counters = nullptr);

/// Enumerates the level-0/1 seed pairs of the plan (the "edges" Dryadic
/// distributes). For every valid v0, every valid v1 from level 1's candidate
/// set.
std::vector<std::pair<VertexId, VertexId>> enumerate_seeds(
    GraphView g, const MatchingPlan& plan);

}  // namespace stm
