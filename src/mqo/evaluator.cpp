#include "mqo/evaluator.hpp"

#include <algorithm>
#include <array>
#include <bitset>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace stm::mqo {
namespace {

/// Set bits of each prefix mask: without -mpopcnt, std::popcount is a
/// libgcc call, and the walk reads widths at every node expansion.
constexpr auto kMaskWidth = [] {
  std::array<std::uint8_t, 256> w{};
  for (std::size_t m = 1; m < w.size(); ++m) w[m] = w[m >> 1] + (m & 1);
  return w;
}();

/// The normalised pair (min, max) of edge (a, b), as one ordered key.
std::uint64_t edge_key(VertexId a, VertexId b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

/// The cut term's order (dist/sharded.hpp): the ordered edges are the cut
/// edges, those whose endpoints have different owners.
struct CutOrder {
  std::span<const std::uint32_t> owner;

  /// Whether w may end an ordered edge after the anchor: any vertex may.
  bool may_close(VertexId) const { return true; }
  /// Whether (w, v) is an ordered edge after the anchor.
  bool later(VertexId w, VertexId v, std::uint64_t anchor) const {
    return owner[w] != owner[v] && edge_key(w, v) > anchor;
  }
};

/// The delta order: the ordered edges are one polarity of a batch, walked
/// from the largest key down, so those after the anchor are the ones
/// already walked. Their endpoints set bits of a fixed-size filter, and an
/// edge is looked up only when both its endpoints hit it: nothing here is
/// sized by the graph.
class DeltaOrder {
 public:
  explicit DeltaOrder(std::span<const std::pair<VertexId, VertexId>> edges) {
    keys_.reserve(edges.size());
    for (const auto& [a, b] : edges) keys_.push_back(edge_key(a, b));
    std::ranges::sort(keys_);
    STM_CHECK(std::ranges::adjacent_find(keys_) == keys_.end());
  }

  /// This polarity's edge keys, ascending.
  std::span<const std::uint64_t> keys() const { return keys_; }
  /// Records that edge (u, v) has been walked.
  void walked(VertexId u, VertexId v) {
    filter_.set(u % kFilterBits);
    filter_.set(v % kFilterBits);
  }

  bool may_close(VertexId w) const { return filter_.test(w % kFilterBits); }
  bool later(VertexId w, VertexId v, std::uint64_t anchor) const {
    if (!may_close(v) || !may_close(w)) return false;
    const std::uint64_t key = edge_key(w, v);
    return key > anchor && std::ranges::binary_search(keys_, key);
  }

 private:
  static constexpr std::size_t kFilterBits = 4096;
  std::vector<std::uint64_t> keys_;
  std::bitset<kFilterBits> filter_;
};

/// One trie walk over one graph view. Holds per-depth candidate buffers —
/// children of a node are explored sequentially and deeper recursion only
/// touches deeper buffers (the RecExec idiom), so nothing reallocates
/// underneath an active iteration. The walk rejects a candidate that closes
/// a pattern edge onto an edge `Order` puts after the anchor, so every
/// embedding is credited once, at the largest ordered edge it contains.
template <class Order>
class Walker {
 public:
  Walker(const PatternIndex& index, const simd::Kernels& simd, GraphView g,
         int sign, EvalResult* out, const Order& order)
      : index_(index), simd_(simd), g_(g), sign_(sign), out_(out),
        order_(order) {}

  /// Data edge (u, v) through the trie root. The forward orientation,
  /// positions 0 and 1 on (u, v), walks the whole trie and credits a
  /// flipped node's terminals twice: the node's flip maps what it finds
  /// one-to-one onto what (v, u) would find. The reverse orientation then
  /// enters only subtrees holding an unflipped terminal and credits only
  /// those; it is not seeded when the trie holds none.
  void walk_edge(VertexId u, VertexId v) {
    STM_CHECK_MSG(g_.has_edge(u, v), "walked edge (" << u << ',' << v
                                                    << ") is not in the view");
    anchor_ = edge_key(u, v);
    const TrieNode& root = index_.trie().root();
    for (const bool reverse : {false, true}) {
      if (reverse && !root.reverse) break;
      reverse_ = reverse;
      const VertexId s0 = reverse ? v : u;
      const VertexId s1 = reverse ? u : v;
      ++out_->seed_walks;
      for (const auto& first : root.children) {
        if (!enters(*first) || !label_match(first->step.label, s0)) continue;
        matched_[0] = s0;
        ++out_->node_visits;
        for (const auto& second : first->children) {
          // Depth-2 steps are always mask 0b1 (the anchor edge); only the
          // label can prune here.
          if (!enters(*second) || !label_match(second->step.label, s1)) {
            continue;
          }
          matched_[1] = s1;
          ++out_->node_visits;
          credit(*second);
          if (!second->children.empty()) descend(*second, 2);
        }
      }
    }
  }

 private:
  /// Whether the current orientation walks `node`: the forward one walks
  /// every node, the reverse one only toward unflipped terminals.
  bool enters(const TrieNode& node) const { return !reverse_ || node.reverse; }

  /// How often the current orientation credits each embedding completing
  /// at `node`: a flipped node's count twice forward and never in reverse.
  int weight(const TrieNode& node) const {
    if (!node.flip) return 1;
    return reverse_ ? 0 : 2;
  }

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
  /// positions in `mask`) onto an edge ordered after the anchor.
  bool ordered(std::uint8_t mask, std::size_t depth, VertexId v) const {
    for (std::size_t j = 0; j < depth; ++j) {
      if (((mask >> j) & 1u) != 0 && order_.later(matched_[j], v, anchor_)) {
        return false;
      }
    }
    return true;
  }

  /// Whether the order can reject a candidate at position `depth`: some
  /// prefix vertex in `mask` may end an edge ordered after the anchor.
  bool may_reject(std::uint8_t mask, std::size_t depth) const {
    for (std::size_t j = 0; j < depth; ++j) {
      if (((mask >> j) & 1u) != 0 && order_.may_close(matched_[j])) return true;
    }
    return false;
  }

  /// Credits every anchored plan completing at `node` with the current
  /// partial embedding matched_[0 .. node.depth). A collecting terminal on
  /// a flipped node also lists the embedding's image under the flip, the
  /// one the reverse orientation would have found.
  void credit(const TrieNode& node) {
    const int weight = this->weight(node);
    if (weight == 0) return;
    for (const TrieTerminal& t : node.terminals) {
      GroupDelta& gd = out_->groups[t.group];
      gd.embeddings += sign_ * weight;
      if (!index_.group_collects(t.group)) continue;
      Embedding found(node.depth);
      Embedding image(node.flip ? node.depth : 0);
      for (std::size_t i = 0; i < node.depth; ++i) {
        found[t.perm[i]] = matched_[i];
        if (node.flip) image[t.perm[i]] = matched_[(*node.flip)[i]];
      }
      auto& list = sign_ > 0 ? gd.added : gd.retracted;
      list.push_back(std::move(found));
      if (node.flip) list.push_back(std::move(image));
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
      const int width = kMaskWidth[live_mask_[p]];
      if ((live_mask_[p] & ~mask) != 0 || width < 2) continue;
      const int best = from == 0 ? 0 : kMaskWidth[live_mask_[from]];
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
  /// search's do not, and so does any step where the edge order may reject
  /// a candidate: the shortcut cannot subtract those.
  std::int64_t count_valid(std::span<const VertexId> c, std::int16_t label,
                           std::uint8_t mask, std::size_t depth) const {
    constexpr std::size_t kSearchMinLength = 16;
    std::int64_t valid = 0;
    if (label < 0 && c.size() >= kSearchMinLength &&
        !may_reject(mask, depth)) {
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
      if (!enters(*child)) continue;
      const std::span<const VertexId> c =
          candidates(child->step.adj_mask, depth);
      const bool leaf = child->children.empty();
      if (leaf && !any_collecting(*child)) {
        // Leaf fast path: terminals only — tally the valid candidates
        // without per-vertex recursion or embedding materialization.
        const std::int64_t valid =
            count_valid(c, child->step.label, child->step.adj_mask, depth);
        out_->node_visits += static_cast<std::uint64_t>(valid);
        const std::int64_t credited = sign_ * weight(*child) * valid;
        for (const TrieTerminal& t : child->terminals) {
          out_->groups[t.group].embeddings += credited;
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
  const Order& order_;
  std::uint64_t anchor_ = 0;
  /// Whether the walk seeds positions 0 and 1 on (v, u) of walk_edge(u, v).
  bool reverse_ = false;
  std::array<VertexId, kMaxPatternSize> matched_{};
  /// live_[p]: the list matched_[p] is being drawn from (valid for p below
  /// the current depth), and live_mask_[p] the prefix positions it
  /// intersects.
  std::array<std::span<const VertexId>, kMaxPatternSize> live_{};
  std::array<std::uint8_t, kMaxPatternSize> live_mask_{};
  std::array<std::vector<VertexId>, kMaxPatternSize + 1> cands_;
  std::vector<VertexId> scratch_;
};

/// Walks one polarity's edges over `g`, largest key first.
void walk_delta(const PatternIndex& index, const simd::Kernels& simd,
                GraphView g,
                std::span<const std::pair<VertexId, VertexId>> edges,
                int sign, EvalResult* out) {
  DeltaOrder order(edges);
  Walker<DeltaOrder> walker(index, simd, g, sign, out, order);
  for (auto it = order.keys().rbegin(); it != order.keys().rend(); ++it) {
    const auto u = static_cast<VertexId>(*it >> 32);
    const auto v = static_cast<VertexId>(*it);
    walker.walk_edge(u, v);
    order.walked(u, v);
  }
}

}  // namespace

MultiQueryEvaluator::MultiQueryEvaluator(const PatternIndex& index)
    : index_(index),
      simd_(simd::kernels_for_choice(simd::IsaChoice::kAuto)) {}

void MultiQueryEvaluator::accumulate(
    GraphView g, VertexId u, VertexId v, EvalResult* out,
    std::span<const std::uint32_t> owner) const {
  STM_CHECK(out != nullptr && out->groups.size() >= index_.num_group_slots());
  STM_CHECK(owner.size() == g.num_vertices());
  const CutOrder order{owner};
  Walker<CutOrder>(index_, simd_, g, +1, out, order).walk_edge(u, v);
}

EvalResult MultiQueryEvaluator::evaluate(const GraphSnapshot& from,
                                         const GraphSnapshot& to,
                                         const DeltaEdges& applied) const {
  STM_CHECK(from.num_vertices() == to.num_vertices());
  EvalResult result;
  result.groups.resize(index_.num_group_slots());
  result.delta_edges = applied.size();
  if (applied.empty() || index_.empty()) return result;

  // Inserted edges over the post-batch version crediting +1, deleted edges
  // over the pre-batch version crediting -1. Each affected embedding of
  // each group is credited exactly once, at the largest edge of the
  // polarity it contains: the delta order rejects it at every other.
  walk_delta(index_, simd_, to.view(), applied.inserted, +1, &result);
  walk_delta(index_, simd_, from.view(), applied.deleted, -1, &result);
  return result;
}

}  // namespace stm::mqo
