// Sorted-set operations over neighbor lists.
//
// These are the building blocks of candidate-set generation (paper Fig. 1
// line 7/10). Inputs must be strictly ascending; outputs are strictly
// ascending. set_op_into below is the one path every engine's set operation
// takes: it chooses the merge or galloping kernel of a table the caller
// binds once per run, then applies the label filter.
#pragma once

#include <algorithm>
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

/// Optional per-element output filter: keep v iff its label bit is in `mask`.
/// `labels == nullptr` disables filtering. This implements the merged
/// multi-label intermediate sets of paper Fig. 10b (a one-bit mask gives the
/// exact-label filter of a final candidate set).
struct LabelFilter {
  const Label* labels = nullptr;
  std::uint64_t mask = ~0ULL;

  bool keep(VertexId v) const {
    return labels == nullptr || ((mask >> labels[v]) & 1ULL);
  }
};

/// The merge-or-gallop rule: probing a list of `shorter` elements into one
/// of `longer` gallops when shorter * simd::kGallopSkewRatio <= longer.
inline bool gallops(std::size_t shorter, std::size_t longer) {
  return shorter * simd::kGallopSkewRatio <= longer;
}

/// out = lhs op rhs through table `k`, then `filter` (out is overwritten).
/// An intersection gallops the shorter list into the longer one when the
/// rule holds and block-merges (lhs, rhs) otherwise; a difference gallops
/// when gallops(|lhs|, |rhs|). Every choice is bit-identical by the kernel
/// contract (simd.hpp), and the filter only inspects surviving elements, so
/// filtering after the kernel equals a fused filtered merge. `out` must not
/// alias lhs or rhs. The recursive executor, the standing-query walker and
/// the SIMT multi-set op all call this.
inline void set_op_into(const simd::Kernels& k, SetOpKind op, SetView lhs,
                        SetView rhs, std::vector<VertexId>& out,
                        LabelFilter filter = {}) {
  std::size_t n;
  if (op == SetOpKind::kIntersect) {
    out.resize(std::min(lhs.size(), rhs.size()) + simd::kSimdOutSlack);
    if (gallops(lhs.size(), rhs.size()))
      n = k.gallop_intersect(lhs.data(), lhs.size(), rhs.data(), rhs.size(),
                             out.data());
    else if (gallops(rhs.size(), lhs.size()))
      n = k.gallop_intersect(rhs.data(), rhs.size(), lhs.data(), lhs.size(),
                             out.data());
    else
      n = k.intersect(lhs.data(), lhs.size(), rhs.data(), rhs.size(),
                      out.data());
  } else {
    out.resize(lhs.size() + simd::kSimdOutSlack);
    n = gallops(lhs.size(), rhs.size())
            ? k.gallop_difference(lhs.data(), lhs.size(), rhs.data(),
                                  rhs.size(), out.data())
            : k.difference(lhs.data(), lhs.size(), rhs.data(), rhs.size(),
                           out.data());
  }
  out.resize(n);
  if (filter.labels != nullptr)
    std::erase_if(out, [&](VertexId v) { return !filter.keep(v); });
}

/// True iff v ∈ s (binary search).
bool set_contains(SetView s, VertexId v);

// The entry points below run on the process-wide dispatch table
// (simd::kernels()). set_intersect_into takes the algorithm explicitly:
// kMerge and kGalloping pick that kernel, and kBinary stays a scalar probe
// loop — it exists as the SIMT cost model's reference strategy, not a
// throughput path. The others follow set_op_into's rule.

/// a ∩ b appended to `out` (out is cleared first).
void set_intersect_into(SetView a, SetView b, std::vector<VertexId>& out,
                        IntersectAlgo algo = IntersectAlgo::kMerge);
std::vector<VertexId> set_intersect(SetView a, SetView b,
                                    IntersectAlgo algo = IntersectAlgo::kMerge);

/// a \ b appended to `out` (out is cleared first).
void set_difference_into(SetView a, SetView b, std::vector<VertexId>& out);
std::vector<VertexId> set_difference(SetView a, SetView b);

/// |a ∩ b| without materializing.
std::size_t set_intersect_count(SetView a, SetView b);
/// |a \ b| without materializing.
std::size_t set_difference_count(SetView a, SetView b);

/// Number of binary-search probe steps for an element lookup in a set of the
/// given size (the simulator's per-lane cost unit): ceil(log2(n)) + 1.
std::uint32_t bsearch_steps(std::size_t set_size);

}  // namespace stm
