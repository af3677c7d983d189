#include "pattern/plan.hpp"

#include <algorithm>
#include <map>

#include "pattern/matching_order.hpp"

namespace stm {

namespace {

/// The canonical operation chain of level l (see header).
std::vector<NeighborOp> build_chain(const Pattern& p, std::size_t level,
                                    Induced induced) {
  std::vector<std::size_t> nbrs, non_nbrs;
  for (std::size_t j = 0; j < level; ++j) {
    if (p.has_edge(j, level))
      nbrs.push_back(j);
    else
      non_nbrs.push_back(j);
  }
  STM_CHECK_MSG(!nbrs.empty(),
                "pattern is not in a connected matching order (level "
                    << level << ")");
  std::vector<NeighborOp> chain;
  chain.push_back({static_cast<std::uint8_t>(nbrs.front()),
                   SetOpKind::kIntersect});  // base: copy of N(v_base)
  std::vector<NeighborOp> rest;
  for (std::size_t i = 1; i < nbrs.size(); ++i)
    rest.push_back({static_cast<std::uint8_t>(nbrs[i]), SetOpKind::kIntersect});
  if (induced == Induced::kVertex) {
    for (std::size_t j : non_nbrs)
      rest.push_back({static_cast<std::uint8_t>(j), SetOpKind::kDifference});
  }
  std::sort(rest.begin(), rest.end(), [](const NeighborOp& a,
                                         const NeighborOp& b) {
    return a.vertex < b.vertex;
  });
  chain.insert(chain.end(), rest.begin(), rest.end());
  return chain;
}

}  // namespace

MatchingPlan::MatchingPlan(const Pattern& reordered, const PlanOptions& opts)
    : pattern_(reordered), opts_(opts) {
  const std::size_t k = pattern_.size();
  STM_CHECK_MSG(k >= 2, "patterns must have at least two vertices");
  STM_CHECK_MSG(pattern_.is_connected(), "pattern must be connected");
  // The identity order must itself be a valid (connected) matching order.
  std::vector<std::size_t> identity(k);
  for (std::size_t i = 0; i < k; ++i) identity[i] = i;
  STM_CHECK_MSG(is_connected_order(pattern_, identity),
                "plan requires a pattern in matching order; "
                "call reorder_for_matching first");

  // Exact label masks per level.
  std::array<std::uint64_t, kMaxPatternSize> exact{};
  for (std::size_t l = 0; l < k; ++l)
    exact[l] = pattern_.is_labeled() ? (1ULL << pattern_.label(l)) : ~0ULL;

  std::array<std::vector<NeighborOp>, kMaxPatternSize> chains;
  for (std::size_t l = 1; l < k; ++l)
    chains[l] = build_chain(pattern_, l, opts_.induced);

  if (opts_.code_motion) {
    // Merged label masks: mask(prefix) = union of the exact masks of every
    // level whose chain extends this prefix (paper Fig. 10b).
    auto prefix_mask = [&](const std::vector<NeighborOp>& prefix) {
      std::uint64_t mask = 0;
      for (std::size_t l = 1; l < k; ++l) {
        if (chains[l].size() < prefix.size()) continue;
        if (std::equal(prefix.begin(), prefix.end(), chains[l].begin()))
          mask |= exact[l];
      }
      STM_CHECK(mask != 0);
      return mask;
    };
    // Trie over chain prefixes; nodes deduplicated by
    // (dep, operand vertex, op kind, label mask).
    std::map<std::tuple<std::int16_t, std::uint8_t, std::uint8_t, std::uint64_t>,
             std::int16_t>
        dedup;
    auto intern = [&](std::int16_t dep, NeighborOp op, std::uint64_t mask,
                      bool candidate) {
      auto key = std::make_tuple(dep, op.vertex,
                                 static_cast<std::uint8_t>(op.kind), mask);
      auto it = dedup.find(key);
      if (it != dedup.end()) {
        if (candidate) nodes_[static_cast<std::size_t>(it->second)].is_candidate = true;
        return it->second;
      }
      SetNode node;
      node.dep = dep;
      node.op = op;
      // Earliest level at which both the new operand and the dep value are
      // available. A vertex-induced difference can reference a vertex smaller
      // than the chain base, in which case the node waits for its dep.
      node.mat_level = static_cast<std::uint8_t>(op.vertex + 1);
      if (dep >= 0)
        node.mat_level = std::max(
            node.mat_level, nodes_[static_cast<std::size_t>(dep)].mat_level);
      node.label_mask = mask;
      node.is_candidate = candidate;
      const auto id = static_cast<std::int16_t>(nodes_.size());
      nodes_.push_back(node);
      dedup.emplace(key, id);
      at_entry_[node.mat_level].push_back(id);
      return id;
    };
    for (std::size_t l = 1; l < k; ++l) {
      const auto& chain = chains[l];
      // Intermediate prefixes with merged masks.
      std::int16_t parent = -1;
      std::vector<NeighborOp> prefix;
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        prefix.push_back(chain[i]);
        parent = intern(parent, chain[i], prefix_mask(prefix), false);
      }
      // Final candidate set with the exact label mask. When the pattern is
      // unlabeled the masks coincide and the node is shared with the trie
      // (paper Fig. 9a); labeled finals are separated (paper Fig. 10a).
      candidate_[l] = intern(parent, chain.back(), exact[l], true);
    }
  } else {
    // Naive plan (paper Fig. 1 nested loop): every chain is rebuilt at its
    // consumer level; nothing is shared or lifted.
    for (std::size_t l = 1; l < k; ++l) {
      const auto& chain = chains[l];
      std::int16_t parent = -1;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        SetNode node;
        node.dep = parent;
        node.op = chain[i];
        node.mat_level = static_cast<std::uint8_t>(l);
        const bool last = (i + 1 == chain.size());
        node.label_mask = last ? exact[l] : ~0ULL;
        node.is_candidate = last;
        parent = static_cast<std::int16_t>(nodes_.size());
        nodes_.push_back(node);
        at_entry_[l].push_back(parent);
      }
      candidate_[l] = parent;
    }
  }

  if (opts_.count_mode == CountMode::kUniqueSubgraphs) {
    constraints_ =
        symmetry_breaking_constraints(pattern_, &automorphism_count_);
    for (const auto& c : constraints_) constraints_at_[c.larger].push_back(c.smaller);
  }
}

std::uint64_t MatchingPlan::exact_mask(std::size_t level) const {
  STM_CHECK(level < pattern_.size());
  return pattern_.is_labeled() ? (1ULL << pattern_.label(level)) : ~0ULL;
}

CompactEncoding MatchingPlan::compact_encoding() const {
  CompactEncoding enc;
  enc.row_ptr.assign(pattern_.size() + 1, 0);
  // Nodes grouped by mat_level, in at_entry_ order (which is dependency
  // order); remap ids accordingly.
  std::vector<std::int16_t> remap(nodes_.size(), -1);
  std::int16_t next = 0;
  for (std::size_t l = 0; l < pattern_.size(); ++l) {
    enc.row_ptr[l] = static_cast<std::uint8_t>(enc.set_ops.size());
    for (std::int16_t id : at_entry_[l]) {
      remap[static_cast<std::size_t>(id)] = next++;
      const SetNode& n = nodes_[static_cast<std::size_t>(id)];
      const std::uint8_t first_is_nbr = (n.dep < 0) ? 1 : 0;
      const std::uint8_t is_diff = (n.op.kind == SetOpKind::kDifference) ? 1 : 0;
      const std::uint8_t dep = n.dep < 0 ? 0
                                         : static_cast<std::uint8_t>(
                                               remap[static_cast<std::size_t>(n.dep)]);
      enc.set_ops.push_back({first_is_nbr, is_diff, dep});
    }
  }
  enc.row_ptr[pattern_.size()] = static_cast<std::uint8_t>(enc.set_ops.size());
  return enc;
}

std::vector<NeighborOp> MatchingPlan::chain(std::size_t level) const {
  STM_CHECK(level >= 1 && level < pattern_.size());
  return build_chain(pattern_, level, opts_.induced);
}

}  // namespace stm
