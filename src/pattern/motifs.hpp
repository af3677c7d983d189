// Motif enumeration: all connected graphs of a given size up to isomorphism.
//
// Backs the motif-census application (paper §I names motif counting as a key
// client of pattern matching) and the "randomly selected size-5/6/7 motifs"
// query-set construction of the evaluation.
#pragma once

#include <vector>

#include "pattern/pattern.hpp"

namespace stm {

/// All connected motifs with `size` vertices (size in [2, 6]; 6 already has
/// 112 classes), each in a canonical vertex order, deterministically sorted.
std::vector<Pattern> connected_motifs(std::size_t size);

/// True iff the unlabeled structures of a and b are isomorphic.
bool isomorphic(const Pattern& a, const Pattern& b);

}  // namespace stm
