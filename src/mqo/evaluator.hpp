// Single-pass batched-delta evaluation over the plan trie (DESIGN.md §16).
//
// MultiQueryEvaluator computes, in one shot, what the per-pattern loop
// computes with one IncrementalMatcher/DeltaStreamer per standing query: the
// exact per-query count and embedding deltas caused by one applied batch.
// It rides the same prefix inclusion–exclusion identity (two GraphEdit
// passes over unpublished prefix versions, one per delta-edge polarity; see
// IncrementalMatcher::count_delta), but where the per-pattern loop issues
// |patterns| x |anchors| seeded enumerations per delta edge, this evaluator
// issues ONE walk over the PlanTrie per (delta edge, orientation): shared
// prefixes are extended once, and enumeration fans out into per-group
// suffixes only at divergence nodes.
// Arriving at a node credits every terminal attached to it — the anchored
// plan of some pattern group completes there — so a single partial embedding
// feeds every registered query it matches. Within one root-to-leaf path the
// walk also hoists work the way MatchingPlan does: a step whose adjacency
// mask contains an ancestor's starts from that ancestor's live candidate
// list, and count-only leaves are tallied rather than enumerated.
//
// Exactness: for a fixed data edge and pattern anchor, the number of
// injective embeddings mapping the anchor onto the edge does not depend on
// the order the remaining vertices are enumerated in. The trie's step order
// (plan_trie.hpp) may differ from the per-pattern planner's, yet both count
// the same embedding set per (group, anchor, edge, orientation) — summed
// over the batch the deltas agree bit for bit, which the harness MQO lane
// asserts against IncrementalMatcher, DeltaStreamer, and full
// re-enumeration.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "dynamic/dynamic_graph.hpp"
#include "mqo/pattern_index.hpp"
#include "setops/simd.hpp"

namespace stm::mqo {

class MultiQueryEvaluator {
 public:
  explicit MultiQueryEvaluator(const PatternIndex& index);

  /// The per-group deltas caused by applying `applied` to version `from`
  /// (arguments as for IncrementalMatcher::count_delta). One trie walk per
  /// (delta edge, orientation); groups with embedding subscribers get their
  /// added/retracted embeddings collected, others only counted.
  EvalResult evaluate(const std::shared_ptr<const GraphSnapshot>& from,
                      const DeltaEdges& applied) const;

  /// One edge's contribution: walks the trie for data edge (u, v) — both
  /// orientations — over `g`, crediting counts (and embeddings for
  /// collecting groups) into *out with polarity `sign` (+1 inserted-pass,
  /// -1 deleted-pass). (u, v) must be an edge of `g`. evaluate() is the
  /// batch entry point. With a non-empty `owner` map (one shard id per
  /// vertex of `g`), the walk counts only embeddings whose cut edges, the
  /// edges with endpoints of different owners, all order at or below (u, v)
  /// by normalised (min, max) pair: the sharded coordinator
  /// (dist/sharded.hpp) calls it once per cut edge over the whole graph,
  /// from concurrent chunks that only read the index and `g`.
  void accumulate(GraphView g, VertexId u, VertexId v, int sign,
                  EvalResult* out,
                  std::span<const std::uint32_t> owner = {}) const;

 private:
  const PatternIndex& index_;
  const simd::Kernels& simd_;
};

}  // namespace stm::mqo
