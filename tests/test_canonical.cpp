// Tests for the canonical pattern form behind the standing-query groups,
// and for the plan-cache key beside it.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "core/run.hpp"
#include "graph/generators.hpp"
#include "pattern/canonical.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"
#include "service/plan_cache.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

std::vector<std::size_t> random_perm(std::size_t n, Rng& rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

TEST(Canonical, InvariantUnderRenumbering) {
  Rng rng(2024);
  for (int q = 1; q <= num_queries(); ++q) {
    const Pattern p = query(q);
    const std::string canon = canonical_form(p);
    for (int trial = 0; trial < 8; ++trial) {
      const Pattern shuffled = p.relabeled(random_perm(p.size(), rng));
      EXPECT_EQ(canonical_form(shuffled), canon)
          << query_name(q) << " trial " << trial;
    }
  }
}

TEST(Canonical, LabeledInvariantUnderRenumbering) {
  Rng rng(7);
  for (int q : {1, 9, 17, 24}) {
    const Pattern p = labeled_query(q, 3);
    const std::string canon = canonical_form(p);
    for (int trial = 0; trial < 8; ++trial) {
      const Pattern shuffled = p.relabeled(random_perm(p.size(), rng));
      EXPECT_EQ(canonical_form(shuffled), canon) << query_name(q);
    }
  }
}

TEST(Canonical, DistinguishesNonIsomorphicQueries) {
  // The 24 evaluation queries are pairwise non-isomorphic, so their
  // canonical forms must all differ.
  std::set<std::string> forms;
  for (int q = 1; q <= num_queries(); ++q)
    forms.insert(canonical_form(query(q)));
  EXPECT_EQ(forms.size(), static_cast<std::size_t>(num_queries()));
}

TEST(Canonical, LabelsDistinguish) {
  const Pattern path = Pattern::parse("0-1,1-2");
  const Pattern lab_a = path.with_labels({0, 1, 0});
  const Pattern lab_b = path.with_labels({1, 0, 1});
  const Pattern lab_a_flipped = path.with_labels({0, 1, 0}).relabeled({2, 1, 0});
  EXPECT_NE(canonical_form(lab_a), canonical_form(path));
  EXPECT_NE(canonical_form(lab_a), canonical_form(lab_b));
  EXPECT_EQ(canonical_form(lab_a), canonical_form(lab_a_flipped));
}

TEST(Canonical, PermutationIsValid) {
  const Pattern p = query(19);
  const auto perm = canonical_permutation(p);
  ASSERT_EQ(perm.size(), p.size());
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), p.size());  // a bijection
  // Relabeling by the canonical permutation reproduces the canonical form.
  EXPECT_EQ(p.relabeled(perm).to_string(), canonical_form(p));
}

TEST(Canonical, SingleVertexAndEdge) {
  EXPECT_EQ(canonical_form(Pattern(1, {})), Pattern(1, {}).to_string());
  const Pattern edge = Pattern::parse("0-1");
  EXPECT_EQ(canonical_form(edge), canonical_form(edge.relabeled({1, 0})));
}

// ---------------------------------------------------------------------------
// Plan-cache key regression: near-colliding non-isomorphic patterns
// ---------------------------------------------------------------------------

TEST(Canonical, CospectralPairsStayDistinct) {
  // Prism (two triangles joined by rungs) vs K_{3,3}: both 6-vertex,
  // 9-edge, 3-regular, so any degree-sequence shortcut in canonical_form
  // collides. They differ in triangle count (prism 2, K33 0).
  const Pattern prism = Pattern::parse("0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5");
  const Pattern k33 = Pattern::parse("0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5");
  EXPECT_NE(canonical_form(prism), canonical_form(k33));

  // Same structure, label multiset {0,0,1} in both — only the placement
  // differs (ends vs middle). An exact-string or label-histogram shortcut
  // treats them alike.
  const Pattern path = Pattern::parse("0-1,1-2");
  EXPECT_NE(canonical_form(path.with_labels({0, 0, 1})),
            canonical_form(path.with_labels({0, 1, 0})));
}

TEST(Canonical, PlanCacheKeepsNonIsomorphicCollidersApart) {
  // The plan cache keys an entry by the plan's compile input,
  // reorder_for_matching(pattern): after caching pattern A, a
  // non-isomorphic pattern B with the same size/degree profile must MISS
  // (and compile its own plan). A renumbering of A shares A's plan exactly
  // when it reorders to the same pattern; otherwise it compiles its own,
  // which counts the same. Handing B (or a differently reordered renumbering
  // of A) A's plan would silently corrupt its counts and embeddings.
  const Pattern prism = Pattern::parse("0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5");
  const Pattern k33 = Pattern::parse("0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5");

  PlanCache cache(16);
  bool hit = true;
  const auto plan_prism = cache.get_or_compile(prism, {}, &hit);
  EXPECT_FALSE(hit);

  const auto plan_k33 = cache.get_or_compile(k33, {}, &hit);
  EXPECT_FALSE(hit) << "non-isomorphic 3-regular pattern must not share";
  EXPECT_NE(plan_prism.get(), plan_k33.get());

  // {5,3,4,2,0,1} is an automorphism of the prism (|Aut| = 12); swapping
  // only 0 and 1 is not, and it reorders to another compile input.
  const Pattern prism_renumbered = prism.relabeled({1, 0, 2, 3, 4, 5});
  ASSERT_NE(reorder_for_matching(prism_renumbered).to_string(),
            reorder_for_matching(prism).to_string());
  const auto plan_again = cache.get_or_compile(prism_renumbered, {}, &hit);
  EXPECT_FALSE(hit) << "a renumbering that reorders differently compiles";
  EXPECT_NE(plan_again.get(), plan_prism.get());
  const Graph g = make_erdos_renyi(24, 0.4, 5);
  const std::uint64_t prisms =
      run_engine(EngineKind::kHost, GraphView(g), *plan_prism, {}, {}).count;
  EXPECT_GT(prisms, 0u);
  EXPECT_EQ(
      run_engine(EngineKind::kHost, GraphView(g), *plan_again, {}, {}).count,
      prisms);

  // The labeled near-collision pair must also get distinct entries.
  const Pattern path = Pattern::parse("0-1,1-2");
  const auto plan_001 =
      cache.get_or_compile(path.with_labels({0, 0, 1}), {}, &hit);
  EXPECT_FALSE(hit);
  const auto plan_010 =
      cache.get_or_compile(path.with_labels({0, 1, 0}), {}, &hit);
  EXPECT_FALSE(hit) << "label placement differs: must not share a plan";
  EXPECT_NE(plan_001.get(), plan_010.get());

  // Different plan options on the same pattern are distinct cache keys too.
  PlanOptions vertex_induced;
  vertex_induced.induced = Induced::kVertex;
  const auto plan_vi = cache.get_or_compile(prism, vertex_induced, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(plan_vi.get(), plan_prism.get());
}

}  // namespace
}  // namespace stm
