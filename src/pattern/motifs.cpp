#include "pattern/motifs.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>

#include "util/check.hpp"

namespace stm {

namespace {

/// Upper-triangle adjacency bits of p under the permutation `perm`
/// (new vertex i = old perm[i]); bit index runs over pairs (i, j), i < j.
std::uint64_t triangle_bits(const Pattern& p,
                            const std::vector<std::size_t>& perm) {
  std::uint64_t bits = 0;
  int bit = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = i + 1; j < p.size(); ++j, ++bit) {
      if (p.has_edge(perm[i], perm[j])) bits |= (1ULL << bit);
    }
  }
  return bits;
}

/// The minimum upper-triangle adjacency bitstring over all vertex
/// permutations: equal for two patterns iff their unlabeled structures are
/// isomorphic.
std::uint64_t min_triangle_bits(const Pattern& p) {
  std::vector<std::size_t> perm(p.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::uint64_t best = ~0ULL;
  do {
    best = std::min(best, triangle_bits(p, perm));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace

bool isomorphic(const Pattern& a, const Pattern& b) {
  if (a.size() != b.size() || a.num_edges() != b.num_edges()) return false;
  return min_triangle_bits(a) == min_triangle_bits(b);
}

std::vector<Pattern> connected_motifs(std::size_t size) {
  STM_CHECK_MSG(size >= 2 && size <= 6,
                "connected_motifs supports sizes 2..6 (got " << size << ")");
  const std::size_t num_pairs = size * (size - 1) / 2;
  std::vector<std::pair<int, int>> pairs;
  for (std::size_t i = 0; i < size; ++i)
    for (std::size_t j = i + 1; j < size; ++j)
      pairs.emplace_back(static_cast<int>(i), static_cast<int>(j));

  std::map<std::uint64_t, Pattern> by_canon;
  for (std::uint64_t mask = 0; mask < (1ULL << num_pairs); ++mask) {
    if (__builtin_popcountll(mask) + 1 <
        static_cast<int>(size))  // too few edges to connect
      continue;
    std::vector<std::pair<int, int>> edges;
    for (std::size_t b = 0; b < num_pairs; ++b)
      if ((mask >> b) & 1ULL) edges.push_back(pairs[b]);
    Pattern p(size, edges);
    if (!p.is_connected()) continue;
    by_canon.try_emplace(min_triangle_bits(p), p);
  }
  std::vector<Pattern> out;
  out.reserve(by_canon.size());
  // Ordered by (edge count, canonical bits): sparse motifs first.
  std::vector<std::pair<std::pair<std::size_t, std::uint64_t>, Pattern>>
      keyed;
  for (auto& [canon, p] : by_canon)
    keyed.push_back({{p.num_edges(), canon}, p});
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [key, p] : keyed) out.push_back(std::move(p));
  return out;
}

}  // namespace stm
