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

}  // namespace

void set_intersect_into(SetView a, SetView b, std::vector<VertexId>& out,
                        IntersectAlgo algo) {
  if (algo == IntersectAlgo::kBinary) {
    out.clear();
    intersect_binary(a, b, out);
    return;
  }
  const simd::Kernels& k = simd::kernels();
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

void set_difference_into(SetView a, SetView b, std::vector<VertexId>& out) {
  set_op_into(simd::kernels(), SetOpKind::kDifference, a, b, out);
}

std::vector<VertexId> set_difference(SetView a, SetView b) {
  std::vector<VertexId> out;
  out.reserve(a.size());
  set_difference_into(a, b, out);
  return out;
}

std::size_t set_intersect_count(SetView a, SetView b) {
  const simd::Kernels& k = simd::kernels();
  if (gallops(a.size(), b.size()))
    return k.gallop_intersect_count(a.data(), a.size(), b.data(), b.size());
  if (gallops(b.size(), a.size()))
    return k.gallop_intersect_count(b.data(), b.size(), a.data(), a.size());
  return k.intersect_count(a.data(), a.size(), b.data(), b.size());
}

std::size_t set_difference_count(SetView a, SetView b) {
  return a.size() - set_intersect_count(a, b);
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
