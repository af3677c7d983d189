// Registered-pattern index for standing queries (DESIGN.md §16).
//
// PatternIndex holds every standing registration, deduplicated by canonical
// form (pattern/canonical.hpp): registrations whose patterns are isomorphic
// — the duplicate-heavy regime of "millions of users each registering
// alerts" — share one *group* whose representative's anchored plans live in
// a single PlanTrie. Register/deregister touch only the registration map,
// the group's refcount, and (for the first/last member of a group) the
// group's trie paths — no global rebuild, no other query perturbed.
//
// The index stores registrations and plans; evaluation is the
// MultiQueryEvaluator's one walk per delta edge (mqo/evaluator.hpp), which
// produces one GroupDelta per group. project() translates a group's delta
// back into an individual registration's terms: divide embeddings by
// |Aut| for kUniqueSubgraphs, remap embeddings from representative vertex
// order through the registration's canonical permutation, lex-sort — the
// same numbers and lists the per-pattern IncrementalMatcher/DeltaStreamer
// pipeline produces, bit for bit.
//
// Not thread-safe; the owning session serializes access (service.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/emit.hpp"
#include "mqo/plan_trie.hpp"
#include "pattern/pattern.hpp"
#include "pattern/plan.hpp"

namespace stm::mqo {

/// The shared-pass outcome for one pattern group, in *representative*
/// terms: embedding-count change plus (only for groups with an embedding
/// subscriber) the added/retracted embeddings in representative vertex
/// order, unsorted.
struct GroupDelta {
  std::int64_t embeddings = 0;
  std::vector<Embedding> added;
  std::vector<Embedding> retracted;
};

/// One MultiQueryEvaluator::evaluate() result: group slot -> delta, plus
/// walk accounting.
struct EvalResult {
  std::vector<GroupDelta> groups;
  /// Seeded trie walks issued: both orientations of every delta edge,
  /// whenever the index is non-empty (labels prune inside a walk).
  std::uint64_t seed_walks = 0;
  /// Trie-node arrivals during the walks — the shared-pass analogue of
  /// per-pattern anchored_runs.
  std::uint64_t node_visits = 0;
  std::uint64_t delta_edges = 0;
};

/// A group delta projected onto one registration: the count change in the
/// registration's CountMode and (for embedding subscribers) the lex-sorted
/// added/retracted lists in the registration's own pattern vertex order.
struct QueryDelta {
  std::int64_t delta = 0;
  std::vector<Embedding> added;
  std::vector<Embedding> retracted;
};

struct IndexStats {
  std::size_t registrations = 0;
  std::size_t groups = 0;
  TrieStats trie;
};

class PatternIndex {
 public:
  /// Throws check_error for the registrations anchored enumeration cannot
  /// serve: vertex-induced options or patterns with fewer than two
  /// vertices. Call before add() (and before any side effect like a WAL
  /// append): add() itself performs the same checks, so pre-validated adds
  /// never fail halfway.
  static void validate(const Pattern& pattern, const PlanOptions& plan);

  /// Registers `id` with the given pattern/options. `wants_embeddings`
  /// marks the registration as an embedding-delta subscriber, which makes
  /// the shared pass collect (not just count) the group's embeddings. An
  /// already-registered id is replaced.
  void add(std::uint64_t id, const Pattern& pattern, const PlanOptions& plan,
           bool wants_embeddings);

  /// Deregisters `id`; drops the group and its trie paths when this was the
  /// last member. Returns false when the id is unknown.
  bool remove(std::uint64_t id);

  bool contains(std::uint64_t id) const { return regs_.contains(id); }
  std::size_t size() const { return regs_.size(); }
  bool empty() const { return regs_.empty(); }
  std::size_t num_groups() const { return by_canon_.size(); }

  /// Any *other* registration isomorphic to `pattern` (the canonical-group
  /// sibling). The session converts a sibling's standing count into a new
  /// duplicate registration's baseline instead of re-enumerating the graph.
  std::optional<std::uint64_t> any_member(const Pattern& pattern) const;

  /// |Aut| of the registration's pattern.
  std::uint64_t automorphisms(std::uint64_t id) const;

  QueryDelta project(std::uint64_t id, const EvalResult& result) const;

  IndexStats stats() const;
  const PlanTrie& trie() const { return trie_; }

  /// Group-slot bound for sizing EvalResult::groups (slots of removed
  /// groups are reused, so this stays dense under churn).
  std::size_t num_group_slots() const { return groups_.size(); }
  /// Whether the group in `slot` has any embedding subscriber (evaluator
  /// probe; unoccupied slots answer false).
  bool group_collects(std::size_t slot) const;

 private:
  struct Group {
    std::string canon;
    Pattern rep;  // pattern relabeled into canonical order
    std::uint64_t aut = 1;
    std::uint32_t embed_refs = 0;
    std::set<std::uint64_t> members;
    std::vector<TrieNode*> terminal_nodes;
    bool occupied = false;
  };
  struct Registration {
    std::uint32_t group = 0;
    Pattern pattern;
    /// canonical_permutation(pattern): representative vertex i = pattern
    /// vertex canon_perm[i].
    std::vector<std::size_t> canon_perm;
    CountMode mode = CountMode::kEmbeddings;
    bool wants_embeddings = false;
  };

  std::uint32_t ensure_group(const Pattern& pattern, const std::string& canon);
  void drop_member(std::uint64_t id);

  std::vector<Group> groups_;  // slot-indexed; freed slots reused
  std::vector<std::uint32_t> free_slots_;
  std::map<std::string, std::uint32_t> by_canon_;
  std::map<std::uint64_t, Registration> regs_;
  PlanTrie trie_;
};

}  // namespace stm::mqo
