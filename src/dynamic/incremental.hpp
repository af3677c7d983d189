// Incremental (delta) pattern matching over graph snapshots.
//
// Given the version a batch was applied to and the effective delta edges,
// IncrementalMatcher computes the exact change in the pattern's match count
// without re-enumerating the whole graph. Enumeration is anchored on delta
// edges only: every pattern edge takes a turn as the anchor (relabeled so
// the anchor spans levels 0 and 1), and for each delta edge both seed
// orientations run through the seeded host recursion against a prefix
// version (a GraphEdit view). Inclusion–exclusion over old/new adjacency
// is realized by the prefix construction (see count_delta in the .cpp),
// which counts every affected match exactly once — cumulative deltas agree
// with full re-enumeration bit for bit.
//
// Unique-subgraph counts are derived from embedding deltas divided by the
// pattern's automorphism count (symmetry-breaking constraints do not
// commute with anchoring). Vertex-induced matching is rejected: an induced
// match can appear or vanish without containing any delta edge (a non-edge
// constraint elsewhere flips), so delta-edge anchoring cannot be exact.
//
// No production path runs these classes: standing queries, WAL replay and
// the sharded cut term all walk the plan trie (mqo/evaluator.hpp) over
// published versions, ordering the delta or cut edges instead of building
// prefixes. IncrementalMatcher, AnchoredEnumerator and the DeltaStreamer
// built on it stay as the per-pattern oracles that walk is checked
// against, and are the only users of prefix versions, so the two sides of
// that check count by different methods.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "pattern/pattern.hpp"
#include "pattern/plan.hpp"

namespace stm {

/// The outcome of one batch's delta computation.
struct DeltaMatchResult {
  /// Exact change in the match count (new minus old), in the requested
  /// CountMode.
  std::int64_t delta = 0;
  /// Anchored engine invocations issued (pattern edges x delta edges x
  /// orientations, minus label-pruned seeds).
  std::uint64_t anchored_runs = 0;
  /// Effective delta edges processed.
  std::uint64_t delta_edges = 0;
};

/// Edge-anchored enumeration: counts the embeddings of a pattern that
/// contain a given data edge. Every pattern edge takes a turn as the anchor
/// (relabeled so the anchor spans levels 0 and 1), and for each data edge
/// both seed orientations run through the seeded host recursion. Plans are
/// always compiled in kEmbeddings mode — symmetry breaking does not commute
/// with a forced anchor — so callers counting unique subgraphs divide
/// aggregated totals by automorphisms().
///
/// Shared by IncrementalMatcher (counts) and DeltaStreamer (embeddings):
/// both realize the prefix inclusion–exclusion identity over an ordered
/// edge set.
class AnchoredEnumerator {
 public:
  /// Compiles one anchored plan per pattern edge. Throws check_error for
  /// vertex-induced options or patterns with fewer than two vertices.
  AnchoredEnumerator(const Pattern& pattern, const PlanOptions& base);

  /// Embeddings containing data edge (u, v) in `g`, summed over all anchors
  /// and both orientations. Increments *runs per engine invocation issued
  /// (label-pruned seeds are skipped).
  std::uint64_t count_containing(GraphView g, VertexId u, VertexId v,
                                 std::uint64_t* runs) const;

  /// Receives one embedding in *original pattern vertex order*:
  /// embedding[i] = data vertex matched to pattern vertex i.
  using AnchoredVisitor = std::function<void(const std::vector<VertexId>&)>;

  /// Enumerates (rather than counts) the embeddings containing (u, v). Each
  /// such embedding is visited exactly once — an injective map puts exactly
  /// one pattern edge onto the data edge, so exactly one (anchor,
  /// orientation) pair finds it. Backs DeltaStreamer.
  std::uint64_t enumerate_containing(GraphView g, VertexId u, VertexId v,
                                     const AnchoredVisitor& visit,
                                     std::uint64_t* runs) const;

  /// |Aut(pattern)| — the embeddings-per-subgraph factor (1 unless the base
  /// options requested kUniqueSubgraphs).
  std::uint64_t automorphisms() const { return automorphisms_; }
  const Pattern& pattern() const { return pattern_; }

 private:
  Pattern pattern_;
  std::vector<MatchingPlan> anchors_;  // anchor edge at levels 0/1
  /// anchor_perms_[a][i] = original pattern vertex at position i of anchored
  /// plan a; inverts the anchor relabeling when emitting embeddings.
  std::vector<std::vector<std::size_t>> anchor_perms_;
  std::uint64_t automorphisms_ = 1;
};

class IncrementalMatcher {
 public:
  /// Compiles one anchored plan per pattern edge. Throws check_error for
  /// vertex-induced options or patterns with fewer than two vertices.
  explicit IncrementalMatcher(const Pattern& pattern,
                              const PlanOptions& plan = {});

  /// Exact match-count change caused by applying `applied` to the version
  /// `from` (i.e. count(from + applied) - count(from)). `applied` must be
  /// the effective delta as reported by MutableGraph::apply — normalized,
  /// insertions absent from and deletions present in `from`.
  DeltaMatchResult count_delta(
      const std::shared_ptr<const GraphSnapshot>& from,
      const DeltaEdges& applied) const;

  const Pattern& pattern() const { return enumerator_.pattern(); }
  /// |Aut(pattern)| — the embeddings-per-subgraph factor.
  std::uint64_t automorphisms() const { return enumerator_.automorphisms(); }

 private:
  CountMode count_mode_;
  AnchoredEnumerator enumerator_;
};

}  // namespace stm
