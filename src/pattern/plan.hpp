// Matching plans: per-level candidate-set expressions, loop-invariant code
// motion (paper §VII, Fig. 9), and merged multi-label intermediate sets
// (paper Fig. 10b).
//
// A plan is compiled from a pattern that is already in matching order
// (see reorder_for_matching). For every level l >= 1 the candidate set is
//
//   C_l =  ∩_{j < l, (j,l) ∈ E(Q)} N(v_j)   [ \ ∪_{j < l, (j,l) ∉ E(Q)} N(v_j) ]
//
// (the bracketed differences only for vertex-induced matching), canonicalized
// as an operation chain that starts at the smallest earlier neighbor and
// applies the remaining operands in ascending vertex order. With code motion
// enabled, chain prefixes are deduplicated in a trie and every set is
// materialized at the earliest level at which its newest operand is matched;
// without it, every chain is rebuilt from scratch at its consumer level
// (the nested loop of paper Fig. 1).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "pattern/pattern.hpp"
#include "pattern/symmetry.hpp"
#include "setops/set_ops.hpp"

namespace stm {

/// Matching semantics (paper §II-A).
enum class Induced : std::uint8_t {
  kEdge,    // edge-induced: pattern edges must exist in the data graph
  kVertex,  // vertex-induced: pattern non-edges must be absent as well
};

/// What the result count means.
enum class CountMode : std::uint8_t {
  kEmbeddings,       // injective homomorphisms (no symmetry breaking)
  kUniqueSubgraphs,  // each subgraph once (symmetry-breaking constraints)
};

struct PlanOptions {
  Induced induced = Induced::kEdge;
  bool code_motion = true;
  CountMode count_mode = CountMode::kEmbeddings;
  /// Pins the SIMD kernel table the host engines use for this plan's set
  /// operations (kAuto = follow the process-wide dispatch). Bit-exact by
  /// contract (setops/simd.hpp) — a testing knob, not a semantics switch.
  simd::IsaChoice forced_isa = simd::IsaChoice::kAuto;
};

/// One operand of a candidate chain: N(v_vertex) combined with `kind`.
struct NeighborOp {
  std::uint8_t vertex = 0;
  SetOpKind kind = SetOpKind::kIntersect;
  bool operator==(const NeighborOp&) const = default;
};

/// A set in the dependence graph (paper Fig. 9a). The set's value is
///   dep == -1 :  N(v_op.vertex)                  (filtered copy)
///   dep >= 0  :  value(dep)  op.kind  N(v_op.vertex)
/// restricted to vertices whose label bit is in label_mask.
struct SetNode {
  std::int16_t dep = -1;
  NeighborOp op;
  /// Level at whose entry the node is materialized (i.e. right after
  /// v_{mat_level-1} is chosen). With code motion this is op.vertex + 1; the
  /// naive plan recomputes everything at the consumer level.
  std::uint8_t mat_level = 0;
  /// Merged multi-label output filter (all-ones when unlabeled).
  std::uint64_t label_mask = ~0ULL;
  bool is_candidate = false;
};

/// Compact dependence-graph encoding (paper Fig. 9b): one triple per set.
struct CompactEncoding {
  /// row_ptr[l]..row_ptr[l+1] delimit the sets materialized at entry of
  /// level l (size = pattern size + 1).
  std::vector<std::uint8_t> row_ptr;
  /// {first_operand_is_neighbor, is_difference, dep_index} per set.
  std::vector<std::array<std::uint8_t, 3>> set_ops;
};

/// The compiled execution plan shared by all engines.
class MatchingPlan {
 public:
  /// `reordered` must already be in matching order (identity order) and
  /// connected.
  MatchingPlan(const Pattern& reordered, const PlanOptions& opts);

  const Pattern& pattern() const { return pattern_; }
  std::size_t size() const { return pattern_.size(); }
  const PlanOptions& options() const { return opts_; }

  const std::vector<SetNode>& nodes() const { return nodes_; }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Node ids to materialize (in dependency order) when entering `level`.
  const std::vector<std::int16_t>& nodes_at_entry(std::size_t level) const {
    STM_CHECK(level >= 1 && level < pattern_.size());
    return at_entry_[level];
  }

  /// The candidate-set node of `level` (level >= 1; level 0 iterates V).
  std::int16_t candidate_node(std::size_t level) const {
    STM_CHECK(level >= 1 && level < pattern_.size());
    return candidate_[level];
  }

  /// Exact label of query vertex `level` as a one-bit mask (all-ones when
  /// unlabeled); used for level-0 filtering.
  std::uint64_t exact_mask(std::size_t level) const;

  /// Symmetry constraints (empty in embeddings mode).
  const std::vector<SymmetryConstraint>& constraints() const {
    return constraints_;
  }
  /// Embeddings each counted match stands for: |Aut(Q)| in unique-subgraph
  /// mode, 1 in embeddings mode.
  std::uint64_t automorphism_count() const { return automorphism_count_; }
  /// The `smaller` sides of constraints whose larger side is `level`; checked
  /// when v_level is chosen.
  const std::vector<std::uint8_t>& constraints_at(std::size_t level) const {
    STM_CHECK(level < pattern_.size());
    return constraints_at_[level];
  }

  /// Paper Fig. 9b encoding of the dependence graph.
  CompactEncoding compact_encoding() const;

  /// The canonical operation chain of a level (for tests/inspection).
  std::vector<NeighborOp> chain(std::size_t level) const;

 private:
  Pattern pattern_;
  PlanOptions opts_;
  std::vector<SetNode> nodes_;
  std::array<std::vector<std::int16_t>, kMaxPatternSize> at_entry_;
  std::array<std::int16_t, kMaxPatternSize> candidate_{};
  std::vector<SymmetryConstraint> constraints_;
  std::uint64_t automorphism_count_ = 1;
  std::array<std::vector<std::uint8_t>, kMaxPatternSize> constraints_at_;
};

}  // namespace stm
