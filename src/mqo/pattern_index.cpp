#include "mqo/pattern_index.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "pattern/canonical.hpp"
#include "pattern/symmetry.hpp"
#include "util/check.hpp"

namespace stm::mqo {
namespace {

/// An automorphism in `autos` that swaps the anchor of `path` (its
/// positions 0 and 1), as a permutation of the path's positions; nothing
/// when none does.
std::optional<Flip> anchor_flip(const std::vector<Permutation>& autos,
                                const AnchoredPath& path) {
  const std::size_t k = path.steps.size();
  std::array<std::uint8_t, kMaxPatternSize> position{};
  for (std::size_t i = 0; i < k; ++i) {
    position[path.perm[i]] = static_cast<std::uint8_t>(i);
  }
  for (const Permutation& alpha : autos) {
    if (alpha[path.perm[0]] != path.perm[1] ||
        alpha[path.perm[1]] != path.perm[0]) {
      continue;
    }
    Flip flip{};
    for (std::size_t i = 0; i < k; ++i) flip[i] = position[alpha[path.perm[i]]];
    return flip;
  }
  return std::nullopt;
}

}  // namespace

void PatternIndex::validate(const Pattern& pattern, const PlanOptions& plan) {
  STM_CHECK_MSG(plan.induced == Induced::kEdge,
                "the standing-query index supports edge-induced semantics "
                "only: a vertex-induced match can change without containing "
                "any delta edge");
  STM_CHECK_MSG(pattern.size() >= 2,
                "indexed standing queries require patterns with at least two "
                "vertices");
  STM_CHECK_MSG(pattern.is_connected(), "pattern must be connected");
}

std::uint32_t PatternIndex::ensure_group(const Pattern& pattern,
                                         const std::string& canon) {
  if (const auto it = by_canon_.find(canon); it != by_canon_.end()) {
    return it->second;
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
  }
  Group& g = groups_[slot];
  g.canon = canon;
  g.rep = pattern.relabeled(canonical_permutation(pattern));
  // One sweep per group: |Aut| serves every kUniqueSubgraphs projection,
  // and the group itself says which anchors an automorphism swaps.
  const std::vector<Permutation> autos = stm::automorphisms(g.rep);
  g.aut = autos.size();
  g.embed_refs = 0;
  g.members.clear();
  g.terminal_nodes.clear();
  g.occupied = true;
  // One anchored path per (unordered) representative edge — the exact
  // anchor set of the per-pattern AnchoredEnumerator, so the shared walk
  // issues the same per-(anchor, edge) contributions.
  for (std::size_t a = 0; a < g.rep.size(); ++a) {
    for (std::size_t b = a + 1; b < g.rep.size(); ++b) {
      if (!g.rep.has_edge(a, b)) continue;
      const AnchoredPath path = anchored_path(g.rep, a, b);
      TrieNode* node = trie_.insert(path, slot, anchor_flip(autos, path));
      // Automorphic anchors land on the same node (several terminals, one
      // node); deduplicate so teardown prunes each node exactly once.
      if (std::find(g.terminal_nodes.begin(), g.terminal_nodes.end(), node) ==
          g.terminal_nodes.end()) {
        g.terminal_nodes.push_back(node);
      }
    }
  }
  by_canon_.emplace(canon, slot);
  return slot;
}

void PatternIndex::add(std::uint64_t id, const Pattern& pattern,
                       const PlanOptions& plan, bool wants_embeddings) {
  validate(pattern, plan);
  if (regs_.contains(id)) drop_member(id);

  Registration reg;
  reg.pattern = pattern;
  reg.canon_perm = canonical_permutation(pattern);
  reg.mode = plan.count_mode;
  reg.wants_embeddings = wants_embeddings;
  const std::string canon = canonical_form(pattern);
  reg.group = ensure_group(pattern, canon);

  Group& g = groups_[reg.group];
  g.members.insert(id);
  if (wants_embeddings) ++g.embed_refs;
  regs_.insert_or_assign(id, std::move(reg));
}

void PatternIndex::drop_member(std::uint64_t id) {
  const auto it = regs_.find(id);
  STM_CHECK(it != regs_.end());
  const Registration& reg = it->second;
  Group& g = groups_[reg.group];
  g.members.erase(id);
  if (reg.wants_embeddings) {
    STM_CHECK(g.embed_refs > 0);
    --g.embed_refs;
  }
  if (g.members.empty()) {
    for (TrieNode* node : g.terminal_nodes) {
      trie_.remove_terminals(node, reg.group);
    }
    by_canon_.erase(g.canon);
    g = Group{};
    free_slots_.push_back(reg.group);
  }
  regs_.erase(it);
}

bool PatternIndex::remove(std::uint64_t id) {
  if (!regs_.contains(id)) return false;
  drop_member(id);
  return true;
}

std::optional<std::uint64_t> PatternIndex::any_member(
    const Pattern& pattern) const {
  const auto it = by_canon_.find(canonical_form(pattern));
  if (it == by_canon_.end()) return std::nullopt;
  const Group& g = groups_[it->second];
  STM_CHECK(!g.members.empty());
  return *g.members.begin();
}

std::uint64_t PatternIndex::automorphisms(std::uint64_t id) const {
  return groups_[regs_.at(id).group].aut;
}

bool PatternIndex::group_collects(std::size_t slot) const {
  return slot < groups_.size() && groups_[slot].occupied &&
         groups_[slot].embed_refs > 0;
}

QueryDelta PatternIndex::project(std::uint64_t id,
                                 const EvalResult& result) const {
  const Registration& reg = regs_.at(id);
  STM_CHECK_MSG(reg.group < result.groups.size(),
                "registration " << id << " has group slot " << reg.group
                                << ", but the result holds only "
                                << result.groups.size());
  const GroupDelta& gd = result.groups[reg.group];

  QueryDelta out;
  out.delta = gd.embeddings;
  if (reg.mode == CountMode::kUniqueSubgraphs) {
    const auto aut = static_cast<std::int64_t>(groups_[reg.group].aut);
    STM_CHECK_MSG(out.delta % aut == 0,
                  "embedding delta " << out.delta << " not divisible by |Aut| "
                                     << aut);
    out.delta /= aut;
  }
  if (!reg.wants_embeddings) return out;

  // Representative-order embedding ê (ê[i] = data vertex of rep vertex i)
  // maps to the registration's own order via rep vertex i = pattern vertex
  // canon_perm[i]; lex-sorting afterwards matches DeltaStreamer's output
  // order exactly.
  const std::size_t k = reg.pattern.size();
  const auto remap = [&](const std::vector<Embedding>& in) {
    std::vector<Embedding> mapped;
    mapped.reserve(in.size());
    for (const Embedding& e : in) {
      Embedding orig(k);
      for (std::size_t i = 0; i < k; ++i) orig[reg.canon_perm[i]] = e[i];
      mapped.push_back(std::move(orig));
    }
    std::sort(mapped.begin(), mapped.end());
    return mapped;
  };
  out.added = remap(gd.added);
  out.retracted = remap(gd.retracted);
  return out;
}

IndexStats PatternIndex::stats() const {
  IndexStats out;
  out.registrations = regs_.size();
  out.groups = by_canon_.size();
  out.trie = trie_.stats();
  return out;
}

}  // namespace stm::mqo
