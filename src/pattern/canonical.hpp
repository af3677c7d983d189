// Canonical pattern form for the standing-query index's groups.
//
// mqo::PatternIndex groups standing registrations whose patterns differ only
// in vertex numbering: they share one representative, and its anchored plans
// serve all of them, each projected back through its own canonical
// permutation. The form is the lexicographically smallest (label,
// adjacency-prefix) encoding over all vertex orderings, serialized through
// Pattern::to_string(). Patterns have at most kMaxPatternSize (8) vertices, so
// a pruned branch-and-bound over orderings is microseconds.
#pragma once

#include <string>
#include <vector>

#include "pattern/pattern.hpp"

namespace stm {

/// The canonical relabeling permutation of `p` (new vertex i = old vertex
/// perm[i], as consumed by Pattern::relabeled).
std::vector<std::size_t> canonical_permutation(const Pattern& p);

/// Canonical edge-list string of `p`: equal for isomorphic patterns
/// (including label-preserving isomorphism for labeled patterns), distinct
/// otherwise.
std::string canonical_form(const Pattern& p);

}  // namespace stm
