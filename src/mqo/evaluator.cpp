#include "mqo/evaluator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "util/check.hpp"

namespace stm::mqo {
namespace {

/// The normalised pair (min, max) of edge (a, b), as one ordered key.
std::uint64_t edge_key(VertexId a, VertexId b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

/// One trie walk over one graph view. Holds per-depth candidate buffers —
/// children of a node are explored sequentially and deeper recursion only
/// touches deeper buffers (the RecExec idiom), so nothing reallocates
/// underneath an active iteration. kOrdered walks reject a candidate that
/// closes a pattern edge onto a later cut edge (see accumulate); otherwise
/// `owner` is unused.
template <bool kOrdered>
class Walker {
 public:
  Walker(const PatternIndex& index, const simd::Kernels& simd, GraphView g,
         int sign, EvalResult* out, std::span<const std::uint32_t> owner)
      : index_(index), simd_(simd), g_(g), sign_(sign), out_(out),
        owner_(owner) {}

  /// Both orientations of data edge (u, v) through the trie root.
  void walk_edge(VertexId u, VertexId v) {
    anchor_ = edge_key(u, v);
    const TrieNode& root = index_.trie().root();
    const std::pair<VertexId, VertexId> seeds[2] = {{u, v}, {v, u}};
    for (const auto& [s0, s1] : seeds) {
      ++out_->seed_walks;
      for (const auto& first : root.children) {
        if (!label_match(first->step.label, s0)) continue;
        matched_[0] = s0;
        ++out_->node_visits;
        for (const auto& second : first->children) {
          // Depth-2 steps are always mask 0b1 (the anchor edge); only the
          // label can prune here.
          if (!label_match(second->step.label, s1)) continue;
          matched_[1] = s1;
          ++out_->node_visits;
          credit(*second);
          if (!second->children.empty()) descend(*second, 2);
        }
      }
    }
  }

 private:
  bool label_match(std::int16_t label, VertexId v) const {
    // A labeled step on an unlabeled graph matches nothing (the session
    // rejects such registrations at baseline enumeration; this keeps the
    // standalone index well-defined).
    return label < 0 || (g_.is_labeled() && g_.label(v) == label);
  }

  bool injective(std::size_t depth, VertexId v) const {
    for (std::size_t j = 0; j < depth; ++j) {
      if (matched_[j] == v) return false;
    }
    return true;
  }

  /// Whether v at position `depth` closes no pattern edge (the prefix
  /// positions in `mask`) onto a cut edge ordered after the anchor.
  bool ordered(std::uint8_t mask, std::size_t depth, VertexId v) const {
    if constexpr (kOrdered) {
      for (std::size_t j = 0; j < depth; ++j) {
        const VertexId w = matched_[j];
        if (((mask >> j) & 1u) != 0 && owner_[w] != owner_[v] &&
            edge_key(w, v) > anchor_) {
          return false;
        }
      }
    }
    return true;
  }

  /// Credits every anchored plan completing at `node` with the current
  /// partial embedding matched_[0 .. node.depth).
  void credit(const TrieNode& node) {
    for (const TrieTerminal& t : node.terminals) {
      GroupDelta& gd = out_->groups[t.group];
      gd.embeddings += sign_;
      if (!index_.group_collects(t.group)) continue;
      Embedding rep_order(node.depth);
      for (std::size_t i = 0; i < node.depth; ++i) {
        rep_order[t.perm[i]] = matched_[i];
      }
      (sign_ > 0 ? gd.added : gd.retracted).push_back(std::move(rep_order));
    }
  }

  /// Candidates for position `depth`: the intersection of the prefix
  /// neighborhoods selected by `mask`, unfiltered (label and injectivity
  /// are checked by the caller). Loop-invariant code motion across levels
  /// (paper §VII): the list each ancestor position p >= 2 drew its vertex
  /// from is still live in live_[p], and when its mask is a subset of
  /// `mask` it already holds that part of the intersection — so start from
  /// the widest such list and intersect only the remaining neighborhoods.
  /// A single list is returned as a view, not copied; results of real
  /// intersections land in cands_[depth].
  std::span<const VertexId> candidates(std::uint8_t mask, std::size_t depth) {
    // The widest live ancestor list inside `mask` (ties: the shorter one).
    // A one-bit ancestor list is a raw N(v) again, so it never qualifies.
    std::size_t from = 0;  // none
    for (std::size_t p = 2; p < depth; ++p) {
      const int width = std::popcount(live_mask_[p]);
      if ((live_mask_[p] & ~mask) != 0 || width < 2) continue;
      const int best = from == 0 ? 0 : std::popcount(live_mask_[from]);
      if (width > best ||
          (width == best && live_[p].size() < live_[from].size())) {
        from = p;
      }
    }
    std::array<std::span<const VertexId>, kMaxPatternSize> lists;
    std::size_t count = 0;
    std::uint8_t rest = mask;
    if (from != 0) {
      lists[count++] = live_[from];
      rest = static_cast<std::uint8_t>(mask & ~live_mask_[from]);
    }
    for (std::size_t j = 0; j < depth; ++j) {
      if ((rest >> j) & 1u) lists[count++] = g_.neighbors(matched_[j]);
    }
    STM_CHECK(count >= 1);  // anchored orders are connected
    if (count == 1) return lists[0];
    // Smallest first; an insertion sort, since count <= kMaxPatternSize.
    for (std::size_t i = 1; i < count; ++i) {
      for (std::size_t j = i; j > 0 && lists[j].size() < lists[j - 1].size();
           --j) {
        std::swap(lists[j], lists[j - 1]);
      }
    }
    auto& out = cands_[depth];
    intersect_into(lists[0], lists[1], &out);
    for (std::size_t i = 2; i < count; ++i) {
      intersect_into({out.data(), out.size()}, lists[i], &scratch_);
      out.swap(scratch_);
    }
    return {out.data(), out.size()};
  }

  void intersect_into(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::vector<VertexId>* out) {
    if (a.size() > b.size()) std::swap(a, b);
    out->resize(std::min(a.size(), b.size()) + simd::kSimdOutSlack);
    const std::size_t n =
        (a.size() * simd::kGallopSkewRatio <= b.size())
            ? simd_.gallop_intersect(a.data(), a.size(), b.data(), b.size(),
                                     out->data())
            : simd_.intersect(a.data(), a.size(), b.data(), b.size(),
                              out->data());
    out->resize(n);
  }

  /// Valid extensions at position `depth` drawn from sorted list `c`. An
  /// unlabeled step accepts every vertex not already matched, so on a long
  /// list (typically a raw or reused neighbor list, which is not copied)
  /// the tally is |c| minus the prefix vertices c contains: one binary
  /// search per prefix position instead of a pass over the list. Short
  /// lists take the pass, whose compares predict well where a binary
  /// search's do not. An ordered walk always takes the pass: the shortcut
  /// cannot subtract the candidates the edge order rejects.
  std::int64_t count_valid(std::span<const VertexId> c, std::int16_t label,
                           std::uint8_t mask, std::size_t depth) const {
    constexpr std::size_t kSearchMinLength = 16;
    std::int64_t valid = 0;
    if (!kOrdered && label < 0 && c.size() >= kSearchMinLength) {
      valid = static_cast<std::int64_t>(c.size());
      for (std::size_t j = 0; j < depth; ++j) {
        if (std::binary_search(c.begin(), c.end(), matched_[j])) --valid;
      }
      return valid;
    }
    for (const VertexId v : c) {
      if (label_match(label, v) && injective(depth, v) &&
          ordered(mask, depth, v)) {
        ++valid;
      }
    }
    return valid;
  }

  void descend(const TrieNode& node, std::size_t depth) {
    for (const auto& child : node.children) {
      const std::span<const VertexId> c =
          candidates(child->step.adj_mask, depth);
      const bool leaf = child->children.empty();
      if (leaf && !any_collecting(*child)) {
        // Leaf fast path: terminals only — tally the valid candidates
        // without per-vertex recursion or embedding materialization.
        const std::int64_t valid =
            count_valid(c, child->step.label, child->step.adj_mask, depth);
        out_->node_visits += static_cast<std::uint64_t>(valid);
        for (const TrieTerminal& t : child->terminals) {
          out_->groups[t.group].embeddings += sign_ * valid;
        }
        continue;
      }
      live_[depth] = c;
      live_mask_[depth] = child->step.adj_mask;
      for (const VertexId v : c) {
        if (!label_match(child->step.label, v) || !injective(depth, v) ||
            !ordered(child->step.adj_mask, depth, v)) {
          continue;
        }
        matched_[depth] = v;
        ++out_->node_visits;
        credit(*child);
        if (!leaf) descend(*child, depth + 1);
      }
    }
  }

  bool any_collecting(const TrieNode& node) const {
    return std::any_of(node.terminals.begin(), node.terminals.end(),
                       [&](const TrieTerminal& t) {
                         return index_.group_collects(t.group);
                       });
  }

  const PatternIndex& index_;
  const simd::Kernels& simd_;
  const GraphView g_;
  const int sign_;
  EvalResult* out_;
  const std::span<const std::uint32_t> owner_;
  std::uint64_t anchor_ = 0;
  std::array<VertexId, kMaxPatternSize> matched_{};
  /// live_[p]: the list matched_[p] is being drawn from (valid for p below
  /// the current depth), and live_mask_[p] the prefix positions it
  /// intersects.
  std::array<std::span<const VertexId>, kMaxPatternSize> live_{};
  std::array<std::uint8_t, kMaxPatternSize> live_mask_{};
  std::array<std::vector<VertexId>, kMaxPatternSize + 1> cands_;
  std::vector<VertexId> scratch_;
};

}  // namespace

MultiQueryEvaluator::MultiQueryEvaluator(const PatternIndex& index)
    : index_(index),
      simd_(simd::kernels_for_choice(simd::IsaChoice::kAuto)) {}

void MultiQueryEvaluator::accumulate(
    GraphView g, VertexId u, VertexId v, int sign, EvalResult* out,
    std::span<const std::uint32_t> owner) const {
  STM_CHECK(out != nullptr && out->groups.size() >= index_.num_group_slots());
  STM_CHECK_MSG(g.has_edge(u, v), "delta edge must be present in the view");
  STM_CHECK(owner.empty() || owner.size() == g.num_vertices());
  if (owner.empty()) {
    Walker<false>(index_, simd_, g, sign, out, owner).walk_edge(u, v);
  } else {
    Walker<true>(index_, simd_, g, sign, out, owner).walk_edge(u, v);
  }
}

EvalResult MultiQueryEvaluator::evaluate(
    const std::shared_ptr<const GraphSnapshot>& from,
    const DeltaEdges& applied) const {
  STM_CHECK(from != nullptr);
  EvalResult result;
  result.groups.resize(index_.num_group_slots());
  result.delta_edges = applied.size();
  if (applied.empty() || index_.empty()) return result;

  // The per-pattern inclusion–exclusion, verbatim (see
  // IncrementalMatcher::count_delta): walk the inserted edges over
  // G_common + {d_1..d_i} crediting +1, the deleted edges over their own
  // prefix versions crediting -1. Each affected embedding of each group is
  // credited exactly once, at the largest-index delta edge it contains.
  for (const int sign : {+1, -1}) {
    GraphEdit edit(from);
    for (const auto& [u, v] : applied.deleted) edit.remove_edge(u, v);
    for (const auto& [u, v] : sign > 0 ? applied.inserted : applied.deleted) {
      edit.add_edge(u, v);
      accumulate(edit.view(), u, v, sign, &result);
    }
  }
  return result;
}

}  // namespace stm::mqo
