// Tests for src/pattern: Pattern basics, the 24 queries, matching order,
// automorphisms and symmetry breaking.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "pattern/matching_order.hpp"
#include "pattern/pattern.hpp"
#include "pattern/queries.hpp"
#include "pattern/symmetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

TEST(Pattern, ParseAndBasics) {
  Pattern p = Pattern::parse("0-1,1-2,2-0");
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.num_edges(), 3u);
  EXPECT_TRUE(p.has_edge(0, 2));
  EXPECT_TRUE(p.is_connected());
  EXPECT_TRUE(p.is_clique());
  EXPECT_EQ(p.degree(1), 2u);
}

TEST(Pattern, ParseRejectsMalformed) {
  EXPECT_THROW(Pattern::parse("01"), check_error);
  EXPECT_THROW(Pattern::parse(""), check_error);
  EXPECT_THROW(Pattern::parse("0-0"), check_error);  // self loop
}

TEST(Pattern, TooLargeRejected) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 9; ++i) edges.emplace_back(i, (i + 1) % 9);
  EXPECT_THROW(Pattern(9, edges), check_error);
}

TEST(Pattern, Disconnected) {
  Pattern p(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(p.is_connected());
}

TEST(Pattern, Labels) {
  Pattern p = Pattern::parse("0-1,1-2").with_labels({5, 6, 5});
  EXPECT_TRUE(p.is_labeled());
  EXPECT_EQ(p.label(2), 5);
  EXPECT_THROW(Pattern::parse("0-1").with_labels({1}), check_error);
}

TEST(Pattern, RelabeledPreservesStructure) {
  Pattern p = Pattern::parse("0-1,1-2,2-3");  // path
  Pattern q = p.relabeled({3, 2, 1, 0});
  EXPECT_EQ(q.num_edges(), 3u);
  EXPECT_TRUE(q.has_edge(0, 1));  // old 3-2
  EXPECT_TRUE(q.is_connected());
  EXPECT_THROW(p.relabeled({0, 0, 1, 2}), check_error);
}

TEST(Pattern, RelabeledMovesLabels) {
  Pattern p = Pattern::parse("0-1,1-2").with_labels({7, 8, 9});
  Pattern q = p.relabeled({2, 1, 0});
  EXPECT_EQ(q.label(0), 9);
  EXPECT_EQ(q.label(2), 7);
}

TEST(Pattern, ToStringRoundTrip) {
  Pattern p = Pattern::parse("0-1,0-2,1-2,2-3");
  EXPECT_EQ(Pattern::parse(p.to_string()).to_string(), p.to_string());
}

TEST(Queries, CountAndSizes) {
  EXPECT_EQ(num_queries(), 24);
  EXPECT_EQ(queries_of_size(5), (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(queries_of_size(6),
            (std::vector<int>{9, 10, 11, 12, 13, 14, 15, 16}));
  EXPECT_EQ(queries_of_size(7),
            (std::vector<int>{17, 18, 19, 20, 21, 22, 23, 24}));
}

TEST(Queries, AllConnected) {
  for (int i = 1; i <= num_queries(); ++i)
    EXPECT_TRUE(query(i).is_connected()) << query_name(i);
}

TEST(Queries, CliquesAreQ8Q16Q24) {
  for (int i = 1; i <= num_queries(); ++i) {
    const bool expect_clique = (i == 8 || i == 16 || i == 24);
    EXPECT_EQ(query(i).is_clique(), expect_clique) << query_name(i);
  }
}

TEST(Queries, NearCliquesAreOneEdgeShort) {
  for (int i : {7, 15, 23}) {
    Pattern p = query(i);
    EXPECT_EQ(p.num_edges(), p.size() * (p.size() - 1) / 2 - 1)
        << query_name(i);
  }
}

TEST(Queries, AllDistinct) {
  for (int i = 1; i <= num_queries(); ++i)
    for (int j = i + 1; j <= num_queries(); ++j)
      EXPECT_FALSE(query(i) == query(j)) << i << " vs " << j;
}

TEST(Queries, OutOfRangeThrows) {
  EXPECT_THROW(query(0), check_error);
  EXPECT_THROW(query(25), check_error);
}

TEST(Queries, LabeledQueryDeterministic) {
  Pattern a = labeled_query(5), b = labeled_query(5);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.is_labeled());
  for (std::size_t v = 0; v < a.size(); ++v) EXPECT_LT(a.label(v), 10);
}

TEST(MatchingOrder, ConnectedForAllQueries) {
  for (int i = 1; i <= num_queries(); ++i) {
    Pattern p = query(i);
    auto order = matching_order(p);
    EXPECT_TRUE(is_connected_order(p, order)) << query_name(i);
  }
}

TEST(MatchingOrder, StartsAtMaxDegree) {
  Pattern star_plus = query(11);  // star + edge: vertex 0 is the hub
  EXPECT_EQ(matching_order(star_plus)[0], 0u);
}

TEST(MatchingOrder, ReorderedIsIdentityOrder) {
  for (int i = 1; i <= num_queries(); ++i) {
    Pattern r = reorder_for_matching(query(i));
    std::vector<std::size_t> identity(r.size());
    std::iota(identity.begin(), identity.end(), 0);
    EXPECT_TRUE(is_connected_order(r, identity)) << query_name(i);
  }
}

TEST(MatchingOrder, DisconnectedThrows) {
  Pattern p(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(matching_order(p), check_error);
}

TEST(Symmetry, AutomorphismCounts) {
  EXPECT_EQ(automorphisms(Pattern::parse("0-1")).size(), 2u);           // K2
  EXPECT_EQ(automorphisms(Pattern::parse("0-1,1-2")).size(), 2u);       // path
  EXPECT_EQ(automorphisms(Pattern::parse("0-1,1-2,2-0")).size(), 6u);   // K3
  EXPECT_EQ(automorphisms(query(8)).size(), 120u);                      // K5
  EXPECT_EQ(automorphisms(query(3)).size(), 10u);                       // C5
  // Star S4 (+hub): leaves permute freely.
  EXPECT_EQ(automorphisms(Pattern::parse("0-1,0-2,0-3,0-4")).size(), 24u);
}

TEST(Symmetry, LabelsRestrictAutomorphisms) {
  Pattern tri = Pattern::parse("0-1,1-2,2-0");
  EXPECT_EQ(automorphisms(tri.with_labels({0, 0, 1})).size(), 2u);
  EXPECT_EQ(automorphisms(tri.with_labels({0, 1, 2})).size(), 1u);
}

TEST(Symmetry, IdentityAlwaysPresent) {
  for (int i = 1; i <= num_queries(); ++i) {
    auto autos = automorphisms(query(i));
    bool has_identity = false;
    for (const auto& perm : autos) {
      bool id = true;
      for (std::size_t v = 0; v < perm.size(); ++v) id &= (perm[v] == v);
      has_identity |= id;
    }
    EXPECT_TRUE(has_identity) << query_name(i);
  }
}

TEST(Symmetry, ConstraintsOrientedSmallToLarge) {
  for (int i = 1; i <= num_queries(); ++i) {
    Pattern p = reorder_for_matching(query(i));
    for (const auto& c : symmetry_breaking_constraints(p))
      EXPECT_LT(c.smaller, c.larger) << query_name(i);
  }
}

TEST(Symmetry, CliqueConstraintsFormTotalOrder) {
  Pattern k4 = reorder_for_matching(Pattern::parse("0-1,0-2,0-3,1-2,1-3,2-3"));
  auto constraints = symmetry_breaking_constraints(k4);
  // Stabilizer chain on K4: orbit of 0 is {1,2,3}, of 1 is {2,3}, of 2 is {3}.
  EXPECT_EQ(constraints.size(), 6u);
}

TEST(Symmetry, AsymmetricPatternHasNoConstraints) {
  // Triangle with a 2-path on one corner and a pendant on another: every
  // vertex is structurally distinguishable, so Aut = {id}.
  Pattern p = Pattern::parse("0-1,0-2,1-2,2-3,3-4,1-5");
  EXPECT_EQ(automorphisms(p).size(), 1u);
  EXPECT_TRUE(symmetry_breaking_constraints(p).empty());
}

/// The stabilizer chain as first written: store the group, then descend
/// through the pointwise stabilizers of 0..v-1, recording each level's orbit.
std::vector<SymmetryConstraint> stored_group_chain(const Pattern& p) {
  std::vector<Permutation> group = automorphisms(p);
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t v = 0; v < p.size(); ++v) {
    std::vector<Permutation> stabilizer;
    for (const auto& sigma : group) {
      if (sigma[v] == v)
        stabilizer.push_back(sigma);
      else
        pairs.emplace(v, sigma[v]);
    }
    group = std::move(stabilizer);
  }
  std::vector<SymmetryConstraint> out;
  for (auto [a, b] : pairs)
    out.push_back({static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)});
  return out;
}

TEST(Symmetry, OnePassChainMatchesStabilizerChain) {
  std::vector<Pattern> patterns;
  for (int i = 1; i <= num_queries(); ++i) {
    const Pattern q = query(i);
    std::vector<Label> mod2(q.size()), mod3(q.size());
    for (std::size_t v = 0; v < q.size(); ++v) {
      mod2[v] = static_cast<Label>(v % 2);
      mod3[v] = static_cast<Label>(v % 3);
    }
    patterns.push_back(q);
    patterns.push_back(q.with_labels(mod2));
    patterns.push_back(q.with_labels(mod3));
  }
  // Random connected patterns: a random spanning tree plus extra edges.
  Rng rng(1801);
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<std::size_t>(rng.next_in(2, 8));
    const double extra = rng.next_double();
    std::vector<std::pair<int, int>> edges;
    for (std::size_t v = 1; v < n; ++v) {
      const std::uint64_t parent = rng.next_below(v);
      for (std::size_t u = 0; u < v; ++u)
        if (u == parent || rng.next_bool(extra))
          edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
    }
    patterns.emplace_back(n, edges);
  }
  for (const Pattern& p : patterns) {
    ASSERT_TRUE(p.is_connected()) << p.to_string();
    std::uint64_t order = 0;
    EXPECT_EQ(symmetry_breaking_constraints(p, &order), stored_group_chain(p))
        << p.to_string();
    EXPECT_EQ(order, automorphisms(p).size()) << p.to_string();
    EXPECT_EQ(automorphism_count(p), order) << p.to_string();
  }
}

TEST(Symmetry, TadpoleHasMirrorSymmetry) {
  // q5 (triangle + 2-tail): the two free triangle corners swap.
  EXPECT_EQ(automorphisms(query(5)).size(), 2u);
  EXPECT_EQ(symmetry_breaking_constraints(reorder_for_matching(query(5))).size(),
            1u);
}

}  // namespace
}  // namespace stm
