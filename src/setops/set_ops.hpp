// Sorted-set operations over neighbor lists.
//
// These are the scalar building blocks of candidate-set generation
// (paper Fig. 1 line 7/10). Inputs must be strictly ascending; outputs are
// strictly ascending.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "setops/simd.hpp"

namespace stm {

/// A view of a sorted vertex set (e.g. a CSR neighbor list).
using SetView = std::span<const VertexId>;

enum class SetOpKind : std::uint8_t {
  kIntersect,   // a ∩ b
  kDifference,  // a \ b
};

enum class IntersectAlgo : std::uint8_t {
  kMerge,      // linear two-pointer merge, O(|a|+|b|)
  kBinary,     // binary-search each element of a in b, O(|a| log |b|)
  kGalloping,  // exponential+binary search, good for skewed sizes
};

/// True iff v ∈ s (binary search).
bool set_contains(SetView s, VertexId v);

// The materializing/counting entry points below route kMerge and kGalloping
// through the runtime-dispatched SIMD kernel tables (setops/simd.hpp) and
// stay bit-identical to the scalar loops for every table. `kernels` pins one
// table (the per-plan ISA override threads through here); nullptr follows
// the process-wide dispatch. kBinary stays a scalar probe loop — it exists
// as the SIMT cost model's reference strategy, not a throughput path.

/// a ∩ b appended to `out` (out is cleared first).
void set_intersect_into(SetView a, SetView b, std::vector<VertexId>& out,
                        IntersectAlgo algo = IntersectAlgo::kMerge,
                        const simd::Kernels* kernels = nullptr);
std::vector<VertexId> set_intersect(SetView a, SetView b,
                                    IntersectAlgo algo = IntersectAlgo::kMerge);

/// a \ b appended to `out` (out is cleared first).
void set_difference_into(SetView a, SetView b, std::vector<VertexId>& out,
                         const simd::Kernels* kernels = nullptr);
std::vector<VertexId> set_difference(SetView a, SetView b);

/// |a ∩ b| without materializing. Auto-selects the galloping kernel when the
/// size skew crosses simd::kGallopSkewRatio.
std::size_t set_intersect_count(SetView a, SetView b,
                                const simd::Kernels* kernels = nullptr);
/// |a \ b| without materializing.
std::size_t set_difference_count(SetView a, SetView b);

/// Applies `op` with the given operand order: result = lhs op rhs.
void set_op_into(SetOpKind op, SetView lhs, SetView rhs,
                 std::vector<VertexId>& out);

/// Number of binary-search probe steps for an element lookup in a set of the
/// given size (the simulator's per-lane cost unit): ceil(log2(n)) + 1.
std::uint32_t bsearch_steps(std::size_t set_size);

}  // namespace stm
