// Shared-prefix trie over anchored matching plans (DESIGN.md §16).
//
// Every standing query is evaluated per update batch through anchored
// enumeration: each pattern edge takes a turn as the anchor at levels 0/1
// and a seeded recursion extends the partial embedding one level at a time.
// The behavior of that recursion through level d is fully determined by the
// anchored pattern's prefix of size d — the labels of its first d vertices
// and the adjacency among them — so two anchored plans whose prefixes agree
// can share the enumeration of those levels and fan out only where they
// diverge.
//
// The trie materializes exactly that factorization. A node at depth d
// extends its parent's (d-1)-vertex prefix by one vertex, keyed by the new
// vertex's adjacency bitmask into the prefix positions plus its exact label.
// A root-to-node path of length k therefore *is* a k-vertex anchored
// pattern; a TrieTerminal attached to the node marks "an anchored plan of
// some registered pattern group ends here" and carries the permutation back
// to the group's representative vertex order. Nodes may hold terminals and
// children at once (a triangle is a shared prefix of every anchored
// 4-clique plan).
//
// The trie stores plans, not state: one walk per delta edge extends shared
// prefixes once and credits every terminal it completes (see
// mqo/evaluator.hpp). Exactness argument: for one anchor {a, b} of pattern
// P and data edge {u, v}, the per-pattern loop's two seeded runs count the
// injective embeddings of P that map {a, b} onto {u, v} — a quantity
// independent of the suffix enumeration order. anchored_path() may pick a
// different deterministic order than the per-pattern planner, yet both
// walks count the same set, so summed deltas agree bit for bit.
//
// A node is *flipped* when an automorphism σ of its anchored pattern swaps
// positions 0 and 1. Then f -> f∘σ maps the embeddings with positions
// (0, 1) on (u, v) one-to-one onto those on (v, u), with the same data
// edges and labels, so one orientation credited twice counts both. Each
// node records σ, and whether its subtree holds a terminal on an unflipped
// node — the only part of the trie the reverse orientation must walk.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pattern/pattern.hpp"

namespace stm::mqo {

/// One anchored plan ending at a trie node: the plan of pattern-group
/// `group` whose anchored vertex order is the node's root path. `perm[i]`
/// is the group-representative vertex matched at trie position i — the
/// inverse relabeling applied when a completed walk emits an embedding.
struct TrieTerminal {
  std::uint32_t group = 0;
  std::array<std::uint8_t, kMaxPatternSize> perm{};
};

/// One prefix-extension step: the new vertex's adjacency into the existing
/// prefix positions (bit j = edge to position j) and its exact label (-1
/// when the pattern is unlabeled — matches any data label).
struct TrieStep {
  std::uint8_t adj_mask = 0;
  std::int16_t label = -1;

  bool operator==(const TrieStep&) const = default;
};

/// An automorphism of an anchored pattern that swaps the anchor, as a
/// permutation of positions: the pattern vertex at position i maps to the
/// one at position flip[i], and flip[0] == 1, flip[1] == 0.
using Flip = std::array<std::uint8_t, kMaxPatternSize>;

struct TrieNode {
  /// Number of prefix vertices including this node's (root = 0).
  std::uint8_t depth = 0;
  TrieStep step;
  TrieNode* parent = nullptr;
  std::vector<std::unique_ptr<TrieNode>> children;
  std::vector<TrieTerminal> terminals;
  /// Set while the node holds terminals and is flipped: an automorphism of
  /// its anchored pattern (the root path) that swaps positions 0 and 1.
  std::optional<Flip> flip;
  /// Whether the reverse orientation of a walk enters this node: its
  /// subtree, itself included, holds a terminal on an unflipped node.
  bool reverse = false;
};

/// The deterministic anchored vertex order of pattern `p` with anchor edge
/// {a, b}: positions 0/1 take the anchor (orientation chosen to
/// lexicographically minimize the step sequence, so isomorphic anchored
/// prefixes collide as often as possible), the suffix follows a
/// max-connectivity greedy with (mask, label, vertex-id) tie-breaks. A pure
/// function of (p, a, b); the unit of prefix sharing.
struct AnchoredPath {
  /// steps[i] keys the trie node at depth i+1 (position i).
  std::vector<TrieStep> steps;
  /// perm[i] = pattern vertex placed at position i.
  std::array<std::uint8_t, kMaxPatternSize> perm{};
};

/// Throws check_error unless p is connected with >= 2 vertices and (a, b)
/// is an edge of p.
AnchoredPath anchored_path(const Pattern& p, std::size_t a, std::size_t b);

struct TrieStats {
  std::size_t nodes = 0;      // excluding the root
  std::size_t terminals = 0;
  /// Terminals on flipped nodes: plans one orientation of an edge serves.
  std::size_t flipped_terminals = 0;
  std::size_t max_depth = 0;
  /// Sum of terminal depths: the node count a trie with no sharing at all
  /// (one private chain per anchored plan) would need.
  std::uint64_t plan_positions = 0;
  /// 1 - nodes / plan_positions (0 for an empty trie): the fraction of
  /// per-plan enumeration levels served by a shared prefix.
  double shared_prefix_ratio = 0.0;
};

class PlanTrie {
 public:
  PlanTrie();

  /// Inserts `path`, reusing every existing prefix node, and attaches a
  /// terminal for `group` at the final node. Returns that node. `flip` is
  /// an automorphism of the path's pattern swapping positions 0 and 1, or
  /// nothing when none exists; every terminal of a node must agree on
  /// whether one does.
  TrieNode* insert(const AnchoredPath& path, std::uint32_t group,
                   const std::optional<Flip>& flip);

  /// Detaches every terminal of `group` from `node`, prunes ancestors left
  /// with no terminals and no children, and refreshes the reverse flags
  /// above. `node` must have been returned by insert() on this trie (and
  /// not pruned since).
  void remove_terminals(TrieNode* node, std::uint32_t group);

  const TrieNode& root() const { return *root_; }
  bool empty() const { return root_->children.empty(); }

  TrieStats stats() const;

  /// Indented human-readable dump (one line per node: depth, step key,
  /// terminal count, and whether the node is flipped and the reverse
  /// orientation enters it); backs tools/mqo_info.
  std::string describe() const;

 private:
  std::unique_ptr<TrieNode> root_;
};

}  // namespace stm::mqo
