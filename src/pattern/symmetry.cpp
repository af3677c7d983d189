#include "pattern/symmetry.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "util/check.hpp"

namespace stm {

namespace {

/// Whether perm maps p's edges onto edges and non-edges onto non-edges, and
/// keeps every label.
bool preserves(const Pattern& p, const Permutation& perm) {
  for (std::size_t u = 0; u < p.size(); ++u) {
    if (p.is_labeled() && p.label(u) != p.label(perm[u])) return false;
    for (std::size_t v = u + 1; v < p.size(); ++v)
      if (p.has_edge(u, v) != p.has_edge(perm[u], perm[v])) return false;
  }
  return true;
}

}  // namespace

std::vector<Permutation> automorphisms(const Pattern& p) {
  Permutation perm(p.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<Permutation> autos;
  do {
    if (preserves(p, perm)) autos.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  STM_CHECK(!autos.empty());  // identity is always present
  return autos;
}

std::uint64_t automorphism_count(const Pattern& p) {
  std::uint64_t order = 0;
  symmetry_breaking_constraints(p, &order);
  return order;
}

std::vector<SymmetryConstraint> symmetry_breaking_constraints(
    const Pattern& p, std::uint64_t* group_order) {
  Permutation perm(p.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  std::uint64_t order = 0;
  do {
    if (!preserves(p, perm)) continue;
    ++order;
    // sigma lies in the pointwise stabilizer of 0..v-1 but not of v exactly
    // when v is its first moved point; then sigma[v] > v is in v's orbit
    // under that stabilizer.
    std::size_t v = 0;
    while (v < perm.size() && perm[v] == v) ++v;
    if (v < perm.size()) pairs.emplace(v, perm[v]);
  } while (std::next_permutation(perm.begin(), perm.end()));
  STM_CHECK(order >= 1);  // identity is always present
  if (group_order != nullptr) *group_order = order;
  std::vector<SymmetryConstraint> out;
  out.reserve(pairs.size());
  for (auto [a, b] : pairs)
    out.push_back({static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)});
  return out;
}

}  // namespace stm
