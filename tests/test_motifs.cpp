// Tests for motif enumeration and isomorphism.
#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "graph/generators.hpp"
#include "pattern/motifs.hpp"
#include "pattern/queries.hpp"
#include "util/check.hpp"

namespace stm {
namespace {

TEST(Motifs, KnownClassCounts) {
  // OEIS A001349 (connected graphs on n nodes): 1, 2, 6, 21, 112.
  EXPECT_EQ(connected_motifs(2).size(), 1u);
  EXPECT_EQ(connected_motifs(3).size(), 2u);
  EXPECT_EQ(connected_motifs(4).size(), 6u);
  EXPECT_EQ(connected_motifs(5).size(), 21u);
  EXPECT_EQ(connected_motifs(6).size(), 112u);
}

TEST(Motifs, OutOfRangeThrows) {
  EXPECT_THROW(connected_motifs(1), check_error);
  EXPECT_THROW(connected_motifs(7), check_error);
}

TEST(Motifs, AllConnectedAndRightSize) {
  for (std::size_t k = 2; k <= 5; ++k) {
    for (const auto& m : connected_motifs(k)) {
      EXPECT_EQ(m.size(), k);
      EXPECT_TRUE(m.is_connected());
    }
  }
}

TEST(Motifs, PairwiseNonIsomorphic) {
  auto motifs = connected_motifs(5);
  for (std::size_t i = 0; i < motifs.size(); ++i)
    for (std::size_t j = i + 1; j < motifs.size(); ++j)
      EXPECT_FALSE(isomorphic(motifs[i], motifs[j])) << i << " vs " << j;
}

TEST(Motifs, SortedSparseFirst) {
  auto motifs = connected_motifs(5);
  for (std::size_t i = 1; i < motifs.size(); ++i)
    EXPECT_LE(motifs[i - 1].num_edges(), motifs[i].num_edges());
  EXPECT_EQ(motifs.front().num_edges(), 4u);   // tree
  EXPECT_EQ(motifs.back().num_edges(), 10u);   // K5
}

TEST(Motifs, CanonicalFormInvariantUnderRelabeling) {
  Pattern p = query(13);
  EXPECT_TRUE(isomorphic(p, p.relabeled({5, 3, 1, 0, 2, 4})));
  EXPECT_TRUE(isomorphic(p, p.relabeled({2, 0, 4, 5, 1, 3})));
}

TEST(Motifs, IsomorphicDetectsStructure) {
  Pattern path_a = Pattern::parse("0-1,1-2,2-3");
  Pattern path_b = Pattern::parse("2-0,0-3,3-1");  // relabeled P4
  Pattern star = Pattern::parse("0-1,0-2,0-3");
  EXPECT_TRUE(isomorphic(path_a, path_b));
  EXPECT_FALSE(isomorphic(path_a, star));
  EXPECT_FALSE(isomorphic(path_a, Pattern::parse("0-1,1-2")));
}

TEST(Motifs, VertexInducedCensusIsExhaustive) {
  // Summing vertex-induced unique counts over all size-k motifs equals the
  // number of connected k-vertex induced subgraphs; on K_n every k-subset is
  // an induced K_k, so exactly one motif (the clique) is non-zero.
  Graph g = make_clique(7);
  ReferenceOptions opts{Induced::kVertex, CountMode::kUniqueSubgraphs};
  std::uint64_t total = 0, nonzero = 0;
  for (const auto& m : connected_motifs(4)) {
    const auto c = reference_count(g, m, opts);
    total += c;
    nonzero += (c > 0);
  }
  EXPECT_EQ(nonzero, 1u);
  EXPECT_EQ(total, 35u);  // C(7,4)
}

TEST(Motifs, CensusPartitionsSubsets) {
  // On an arbitrary graph, the vertex-induced census over all connected
  // motifs counts each connected k-subset exactly once.
  Graph g = make_erdos_renyi(18, 0.3, 5);
  ReferenceOptions opts{Induced::kVertex, CountMode::kUniqueSubgraphs};
  std::uint64_t census = 0;
  for (const auto& m : connected_motifs(4)) census += reference_count(g, m, opts);
  // Independent count: enumerate 4-subsets and test induced connectivity.
  std::uint64_t direct = 0;
  const VertexId n = g.num_vertices();
  for (VertexId a = 0; a < n; ++a)
    for (VertexId b = a + 1; b < n; ++b)
      for (VertexId c = b + 1; c < n; ++c)
        for (VertexId d = c + 1; d < n; ++d) {
          const VertexId vs[4] = {a, b, c, d};
          std::vector<std::pair<int, int>> edges;
          for (int i = 0; i < 4; ++i)
            for (int j = i + 1; j < 4; ++j)
              if (g.has_edge(vs[i], vs[j])) edges.emplace_back(i, j);
          direct += Pattern(4, edges).is_connected();
        }
  EXPECT_EQ(census, direct);
}

TEST(Motifs, PaperQueriesAppearInMotifSets) {
  // Every size-5 evaluation query is one of the 21 size-5 motif classes.
  auto motifs = connected_motifs(5);
  for (int q : queries_of_size(5)) {
    bool found = false;
    for (const auto& m : motifs) found |= isomorphic(m, query(q));
    EXPECT_TRUE(found) << query_name(q);
  }
}

}  // namespace
}  // namespace stm
