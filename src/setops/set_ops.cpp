#include "setops/set_ops.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stm {

bool set_contains(SetView s, VertexId v) {
  return std::binary_search(s.begin(), s.end(), v);
}

namespace {

void intersect_binary(SetView a, SetView b, std::vector<VertexId>& out) {
  for (VertexId v : a)
    if (set_contains(b, v)) out.push_back(v);
}

inline const simd::Kernels& table_or_active(const simd::Kernels* kernels) {
  return kernels != nullptr ? *kernels : simd::kernels();
}

}  // namespace

void set_intersect_into(SetView a, SetView b, std::vector<VertexId>& out,
                        IntersectAlgo algo, const simd::Kernels* kernels) {
  if (algo == IntersectAlgo::kBinary) {
    out.clear();
    intersect_binary(a, b, out);
    return;
  }
  const simd::Kernels& k = table_or_active(kernels);
  // Galloping probes the larger set with elements of the smaller one; the
  // intersection is symmetric so sorted output is preserved either way.
  SetView small = a, large = b;
  if (algo == IntersectAlgo::kGalloping && small.size() > large.size())
    std::swap(small, large);
  out.resize(std::min(a.size(), b.size()) + simd::kSimdOutSlack);
  const std::size_t n =
      algo == IntersectAlgo::kGalloping
          ? k.gallop_intersect(small.data(), small.size(), large.data(),
                               large.size(), out.data())
          : k.intersect(a.data(), a.size(), b.data(), b.size(), out.data());
  out.resize(n);
}

std::vector<VertexId> set_intersect(SetView a, SetView b, IntersectAlgo algo) {
  std::vector<VertexId> out;
  out.reserve(std::min(a.size(), b.size()));
  set_intersect_into(a, b, out, algo);
  return out;
}

void set_difference_into(SetView a, SetView b, std::vector<VertexId>& out,
                         const simd::Kernels* kernels) {
  const simd::Kernels& k = table_or_active(kernels);
  out.resize(a.size() + simd::kSimdOutSlack);
  // The skewed case worth special-casing is |b| >> |a| (subtracting a huge
  // neighbor list from a small candidate set); a \ b never shrinks below
  // probing each element of a, so gallop on that shape.
  const std::size_t n =
      b.size() / simd::kGallopSkewRatio >= std::max<std::size_t>(a.size(), 1)
          ? k.gallop_difference(a.data(), a.size(), b.data(), b.size(),
                                out.data())
          : k.difference(a.data(), a.size(), b.data(), b.size(), out.data());
  out.resize(n);
}

std::vector<VertexId> set_difference(SetView a, SetView b) {
  std::vector<VertexId> out;
  out.reserve(a.size());
  set_difference_into(a, b, out);
  return out;
}

std::size_t set_intersect_count(SetView a, SetView b,
                                const simd::Kernels* kernels) {
  const simd::Kernels& k = table_or_active(kernels);
  SetView small = a, large = b;
  if (small.size() > large.size()) std::swap(small, large);
  if (small.size() * simd::kGallopSkewRatio <= large.size())
    return k.gallop_intersect_count(small.data(), small.size(), large.data(),
                                    large.size());
  return k.intersect_count(a.data(), a.size(), b.data(), b.size());
}

std::size_t set_difference_count(SetView a, SetView b) {
  return a.size() - set_intersect_count(a, b);
}

void set_op_into(SetOpKind op, SetView lhs, SetView rhs,
                 std::vector<VertexId>& out) {
  if (op == SetOpKind::kIntersect)
    set_intersect_into(lhs, rhs, out);
  else
    set_difference_into(lhs, rhs, out);
}

std::uint32_t bsearch_steps(std::size_t set_size) {
  // ceil(log2(n)) + 1 probe steps; degenerate sets still cost one step.
  std::uint32_t ceil_log2 = 0;
  std::size_t pow2 = 1;
  while (pow2 < set_size) {
    pow2 <<= 1;
    ++ceil_log2;
  }
  return ceil_log2 + 1;
}

}  // namespace stm
