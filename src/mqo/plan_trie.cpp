#include "mqo/plan_trie.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <tuple>

#include "util/check.hpp"

namespace stm::mqo {
namespace {

// Step sequence of `p` anchored at oriented pair (first, second): positions
// 0/1 are fixed, the suffix is the max-connectivity greedy. Deterministic
// given the orientation.
AnchoredPath oriented_path(const Pattern& p, std::size_t first,
                           std::size_t second) {
  const std::size_t n = p.size();
  AnchoredPath out;
  out.steps.reserve(n);
  std::array<bool, kMaxPatternSize> placed{};
  std::array<std::size_t, kMaxPatternSize> position{};  // pattern vertex -> pos

  auto place = [&](std::size_t v) {
    const std::size_t pos = out.steps.size();
    std::uint8_t mask = 0;
    for (std::size_t j = 0; j < pos; ++j) {
      if (p.has_edge(v, out.perm[j])) mask |= static_cast<std::uint8_t>(1u << j);
    }
    out.steps.push_back(TrieStep{
        mask, p.is_labeled() ? static_cast<std::int16_t>(p.label(v))
                             : static_cast<std::int16_t>(-1)});
    out.perm[pos] = static_cast<std::uint8_t>(v);
    position[v] = pos;
    placed[v] = true;
  };

  place(first);
  place(second);
  while (out.steps.size() < n) {
    // Next vertex: most edges into the prefix, then the lexicographically
    // smallest (mask, label) key, then the smallest vertex id — the same
    // comparison for every pattern, so isomorphic prefixes order alike.
    std::size_t best = n;
    int best_pop = -1;
    std::uint8_t best_mask = 0;
    std::int16_t best_label = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (placed[v]) continue;
      std::uint8_t mask = 0;
      for (std::size_t j = 0; j < out.steps.size(); ++j) {
        if (p.has_edge(v, out.perm[j])) {
          mask |= static_cast<std::uint8_t>(1u << j);
        }
      }
      const int pop = std::popcount(mask);
      const std::int16_t label = p.is_labeled()
                                     ? static_cast<std::int16_t>(p.label(v))
                                     : static_cast<std::int16_t>(-1);
      const bool better =
          best == n || pop > best_pop ||
          (pop == best_pop &&
           std::tie(mask, label, v) < std::tie(best_mask, best_label, best));
      if (better) {
        best = v;
        best_pop = pop;
        best_mask = mask;
        best_label = label;
      }
    }
    STM_CHECK_MSG(best_pop > 0, "anchored_path requires a connected pattern");
    place(best);
  }
  return out;
}

bool step_seq_less(const std::vector<TrieStep>& a,
                   const std::vector<TrieStep>& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const TrieStep& x, const TrieStep& y) {
        return std::tie(x.adj_mask, x.label) < std::tie(y.adj_mask, y.label);
      });
}

/// Whether `flip` permutes the positions of the anchored pattern spelled by
/// `steps` onto itself, keeping labels and adjacency, and swaps 0 and 1.
bool is_flip(const std::vector<TrieStep>& steps, const Flip& flip) {
  const std::size_t k = steps.size();
  const auto edge = [&](std::size_t i, std::size_t j) {
    return i > j ? ((steps[i].adj_mask >> j) & 1u) != 0
                 : ((steps[j].adj_mask >> i) & 1u) != 0;
  };
  if (flip[0] != 1 || flip[1] != 0) return false;
  std::uint32_t images = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (flip[i] >= k || steps[flip[i]].label != steps[i].label) return false;
    images |= 1u << flip[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (edge(i, j) != edge(flip[i], flip[j])) return false;
    }
  }
  return images == (1u << k) - 1;
}

void collect_stats(const TrieNode& node, std::size_t depth, TrieStats* out) {
  for (const auto& child : node.children) {
    out->nodes += 1;
    out->max_depth = std::max(out->max_depth, depth + 1);
    out->terminals += child->terminals.size();
    if (child->flip) out->flipped_terminals += child->terminals.size();
    out->plan_positions +=
        static_cast<std::uint64_t>(child->terminals.size()) * (depth + 1);
    collect_stats(*child, depth + 1, out);
  }
}

void describe_node(const TrieNode& node, std::size_t depth,
                   std::ostringstream* out) {
  for (const auto& child : node.children) {
    for (std::size_t i = 0; i < depth; ++i) (*out) << "  ";
    (*out) << "pos " << depth << " mask=";
    for (std::size_t j = depth; j-- > 0;) {
      (*out) << (((child->step.adj_mask >> j) & 1u) ? '1' : '0');
    }
    if (depth == 0) (*out) << '-';
    if (child->step.label >= 0) (*out) << " label=" << child->step.label;
    if (!child->terminals.empty()) {
      (*out) << " terminals=" << child->terminals.size();
    }
    if (child->flip) (*out) << " flipped";
    if (child->reverse) (*out) << " reverse";
    (*out) << '\n';
    describe_node(*child, depth + 1, out);
  }
}

}  // namespace

AnchoredPath anchored_path(const Pattern& p, std::size_t a, std::size_t b) {
  STM_CHECK_MSG(p.size() >= 2, "anchored_path requires >= 2 vertices");
  STM_CHECK_MSG(p.is_connected(), "anchored_path requires a connected pattern");
  STM_CHECK_MSG(a < p.size() && b < p.size() && p.has_edge(a, b),
                "anchor must be an edge of the pattern");
  AnchoredPath ab = oriented_path(p, a, b);
  AnchoredPath ba = oriented_path(p, b, a);
  return step_seq_less(ba.steps, ab.steps) ? ba : ab;
}

PlanTrie::PlanTrie() : root_(std::make_unique<TrieNode>()) {}

TrieNode* PlanTrie::insert(const AnchoredPath& path, std::uint32_t group,
                           const std::optional<Flip>& flip) {
  STM_CHECK(!path.steps.empty() && path.steps.size() <= kMaxPatternSize);
  STM_CHECK_MSG(!flip || is_flip(path.steps, *flip),
                "the flip of group " << group
                                     << "'s anchored plan is not an "
                                        "automorphism swapping its anchor");
  TrieNode* node = root_.get();
  for (const TrieStep& step : path.steps) {
    TrieNode* next = nullptr;
    for (const auto& child : node->children) {
      if (child->step == step) {
        next = child.get();
        break;
      }
    }
    if (next == nullptr) {
      auto child = std::make_unique<TrieNode>();
      child->depth = static_cast<std::uint8_t>(node->depth + 1);
      child->step = step;
      child->parent = node;
      next = child.get();
      node->children.push_back(std::move(child));
    }
    node = next;
  }
  if (node->terminals.empty()) {
    node->flip = flip;
  } else {
    STM_CHECK_MSG(node->flip.has_value() == flip.has_value(),
                  "group " << group << " and the other terminals at depth "
                           << static_cast<int>(node->depth)
                           << " disagree on whether an automorphism swaps "
                              "the anchor");
  }
  node->terminals.push_back(TrieTerminal{group, path.perm});
  if (!flip) {
    // Flags are set on whole root paths, so the first set one ends the climb.
    for (TrieNode* n = node; n != nullptr && !n->reverse; n = n->parent) {
      n->reverse = true;
    }
  }
  return node;
}

void PlanTrie::remove_terminals(TrieNode* node, std::uint32_t group) {
  STM_CHECK_MSG(node != nullptr && node != root_.get(),
                "group " << group << "'s terminals sit on no trie node");
  std::erase_if(node->terminals,
                [group](const TrieTerminal& t) { return t.group == group; });
  if (node->terminals.empty()) node->flip.reset();
  while (node != root_.get() && node->terminals.empty() &&
         node->children.empty()) {
    TrieNode* parent = node->parent;
    std::erase_if(parent->children, [node](const std::unique_ptr<TrieNode>& c) {
      return c.get() == node;
    });
    node = parent;
  }
  for (TrieNode* n = node; n != nullptr; n = n->parent) {
    n->reverse = (!n->terminals.empty() && !n->flip) ||
                 std::ranges::any_of(n->children, [](const auto& c) {
                   return c->reverse;
                 });
  }
}

TrieStats PlanTrie::stats() const {
  TrieStats out;
  collect_stats(*root_, 0, &out);
  if (out.plan_positions > 0) {
    out.shared_prefix_ratio =
        1.0 - static_cast<double>(out.nodes) /
                  static_cast<double>(out.plan_positions);
  }
  return out;
}

std::string PlanTrie::describe() const {
  std::ostringstream out;
  const TrieStats s = stats();
  out << "plan trie: " << s.nodes << " nodes, " << s.terminals
      << " terminals (" << s.flipped_terminals << " flipped), max depth "
      << s.max_depth << ", "
      << s.plan_positions << " plan positions, shared-prefix ratio "
      << s.shared_prefix_ratio << '\n';
  describe_node(*root_, 0, &out);
  return out.str();
}

}  // namespace stm::mqo
