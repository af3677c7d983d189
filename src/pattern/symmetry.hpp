// Pattern automorphisms and symmetry-breaking constraints.
//
// Embedding counts overcount unique subgraphs by |Aut(Q)|. The
// stabilizer-chain scheme (GraphZero / Dryadic style) turns the automorphism
// group into a set of `map[a] < map[b]` order constraints under which each
// unique subgraph is enumerated exactly once.
#pragma once

#include <cstdint>
#include <vector>

#include "pattern/pattern.hpp"

namespace stm {

/// A vertex permutation of the pattern (perm[v] = image of v).
using Permutation = std::vector<std::size_t>;

/// All automorphisms of p (edge- and label-preserving). Always contains the
/// identity. Pattern sizes are <= 8, so brute force over k! is cheap. The
/// matching code never stores the group: this is the reference that tests
/// and the harness's automorphism-divisibility relation check against.
std::vector<Permutation> automorphisms(const Pattern& p);

/// |Aut(p)|: the embeddings of p per subgraph it matches.
std::uint64_t automorphism_count(const Pattern& p);

/// An order constraint: the data vertex matched to `smaller` must have a
/// smaller id than the one matched to `larger`; `smaller < larger` always
/// holds, so the constraint can be checked as soon as `larger` is matched.
struct SymmetryConstraint {
  std::uint8_t smaller = 0;
  std::uint8_t larger = 0;
  bool operator==(const SymmetryConstraint&) const = default;
};

/// Stabilizer-chain symmetry breaking: under the returned constraints the
/// number of valid embeddings equals embeddings / |Aut(Q)| (each unique
/// subgraph counted once). One sweep over the k! vertex permutations builds
/// the whole chain without storing the group; `group_order` (optional)
/// receives |Aut(Q)|.
std::vector<SymmetryConstraint> symmetry_breaking_constraints(
    const Pattern& p, std::uint64_t* group_order = nullptr);

}  // namespace stm
