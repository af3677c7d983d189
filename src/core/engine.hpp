// The STMatch engine: stack-based graph pattern matching (paper §IV-§VII).
//
// The backtracking loop of Algorithm 1 runs as an explicit stack machine on
// every warp of a simulated GPU: candidate sets live in per-warp slabs
// ("global memory"), loop state in shared memory, and the whole match
// completes in a single simulated kernel. Load balance comes from two-level
// work stealing (§V) and intra-warp utilization from loop unrolling with
// fused multi-set operations (§VI); loop-invariant code motion is inherited
// from the MatchingPlan (§VII).
#pragma once

#include "core/cancel.hpp"
#include "core/config.hpp"
#include "core/emit.hpp"
#include "graph/view.hpp"
#include "pattern/plan.hpp"

namespace stm {

/// A slice of the outermost loop: data vertices begin, begin + stride, ...
/// below end (0 = |V|). Multi-device runs give each device an interleaved
/// slice (paper Fig. 11); a resumed stream starts after its cursor's vertex.
struct OuterRange {
  VertexId begin = 0;
  VertexId end = 0;
  VertexId stride = 1;
};

/// Runs the engine for `plan` (built from a reordered pattern) on `g`, over
/// the outer-loop slice `range` (all of V by default).
/// Deterministic: the virtual-time warp scheduler makes every run, including
/// all stealing decisions, bit-reproducible. A non-null `cancel` token is
/// polled in the scheduler loop (wall-clock deadlines apply even though the
/// engine's own time is simulated); when it fires, the run returns the
/// partial count with query.status set.
///
/// With a non-null `sink` the engine also emits every matched embedding:
/// bucket id = the virtual index (v - begin) / stride of matched[0] in
/// `range`, so bucket order is outer-vertex order regardless of which warp
/// (or steal lineage) found the match. Matches are staged per bucket as
/// warps count them; a bucket is posted (sorted into DFS order) once the
/// scheduler's low-watermark proves no live work unit — unclaimed range,
/// running warp, migrating snapshot, or recovery unit — can still produce a
/// match in it. Warp aborts and steal
/// losses therefore never affect the stream: their exact-resume recovery
/// re-stages nothing and loses nothing.
MatchResult stmatch_match(GraphView g, const MatchingPlan& plan,
                          const EngineConfig& cfg = {},
                          const CancelToken* cancel = nullptr,
                          EmbeddingSink* sink = nullptr,
                          OuterRange range = {});

/// Convenience wrapper: reorders `p` into matching order, compiles a plan,
/// and runs the engine.
MatchResult stmatch_match_pattern(GraphView g, const Pattern& p,
                                  const PlanOptions& plan_opts = {},
                                  const EngineConfig& cfg = {});

}  // namespace stm
