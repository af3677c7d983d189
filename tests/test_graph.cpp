// Unit tests for src/graph: CSR construction/invariants, edge-list I/O,
// generators, labeling, degree stats, dataset proxies.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/datasets.hpp"
#include "graph/degree_stats.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "util/check.hpp"

namespace stm {
namespace {

TEST(GraphBuilder, Triangle) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate (reversed)
  b.add_edge(0, 1);  // duplicate
  b.add_edge(2, 2);  // self loop
  b.set_num_vertices(3);
  Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(GraphBuilder, NeighborsSorted) {
  GraphBuilder b;
  b.add_edge(5, 0);
  b.add_edge(5, 3);
  b.add_edge(5, 1);
  Graph g = b.build();
  auto nbrs = g.neighbors(5);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b;
  Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, IsolatedVertices) {
  GraphBuilder b(10);
  b.add_edge(0, 1);
  Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.degree(9), 0u);
  EXPECT_TRUE(g.neighbors(9).empty());
}

TEST(Graph, CsrValidationRejectsBadInput) {
  // row_ptr not ending at col size
  EXPECT_THROW(Graph({0, 2}, {1}), check_error);
  // unsorted neighbor list
  EXPECT_THROW(Graph({0, 2, 3, 3}, {2, 1, 0}), check_error);
  // self loop
  EXPECT_THROW(Graph({0, 1, 1}, {0}), check_error);
  // neighbor out of range
  EXPECT_THROW(Graph({0, 1, 1}, {5}), check_error);
}

TEST(Graph, WithLabels) {
  Graph g = make_clique(4);
  Graph lg = g.with_labels({0, 1, 1, 2});
  EXPECT_TRUE(lg.is_labeled());
  EXPECT_FALSE(g.is_labeled());
  EXPECT_EQ(lg.label(2), 1);
  EXPECT_EQ(lg.num_labels(), 3u);
  EXPECT_EQ(g.num_labels(), 1u);
  EXPECT_THROW(g.with_labels({0, 1}), check_error);
}

TEST(EdgeList, RoundTrip) {
  Graph g = make_barabasi_albert(50, 3, 42);
  std::ostringstream os;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) os << u << ' ' << v << '\n';
  std::istringstream is(os.str());
  Graph g2 = read_edge_list(is);
  EXPECT_EQ(g2.num_vertices(), g.num_vertices());
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_EQ(g2.row_ptr(), g.row_ptr());
  EXPECT_EQ(g2.col_idx(), g.col_idx());
}

TEST(EdgeList, ParsesCommentsAndBlankLines) {
  std::istringstream is("# header\n\n0 1\n1 2 # trailing comment\n");
  Graph g = read_edge_list(is);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeList, RejectsMalformedLines) {
  std::istringstream a("0\n");
  EXPECT_THROW(read_edge_list(a), check_error);
  std::istringstream b("0 1 2\n");
  EXPECT_THROW(read_edge_list(b), check_error);
  std::istringstream c("-1 2\n");
  EXPECT_THROW(read_edge_list(c), check_error);
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent/file.txt"), check_error);
}

TEST(Generators, Clique) {
  Graph g = make_clique(6);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(g.max_degree(), 5u);
}

TEST(Generators, Cycle) {
  Graph g = make_cycle(7);
  EXPECT_EQ(g.num_edges(), 7u);
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Generators, Star) {
  Graph g = make_star(9);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.degree(0), 9u);
  EXPECT_EQ(g.degree(5), 1u);
}

TEST(Generators, Path) {
  Graph g = make_path(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Generators, CompleteBipartite) {
  Graph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_FALSE(g.has_edge(0, 1));  // same side
  EXPECT_TRUE(g.has_edge(0, 3));
}

TEST(Generators, Grid) {
  Graph g = make_grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  // 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8
  EXPECT_EQ(g.num_edges(), 17u);
}

TEST(Generators, ErdosRenyiDeterministic) {
  Graph a = make_erdos_renyi(100, 0.1, 7);
  Graph b = make_erdos_renyi(100, 0.1, 7);
  EXPECT_EQ(a.col_idx(), b.col_idx());
}

TEST(Generators, ErdosRenyiEdgeCountNearExpected) {
  Graph g = make_erdos_renyi(200, 0.1, 9);
  const double expected = 0.1 * 200 * 199 / 2;
  EXPECT_GT(static_cast<double>(g.num_edges()), expected * 0.75);
  EXPECT_LT(static_cast<double>(g.num_edges()), expected * 1.25);
}

TEST(Generators, ErdosRenyiExtremes) {
  EXPECT_EQ(make_erdos_renyi(20, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(make_erdos_renyi(20, 1.0, 1).num_edges(), 190u);
}

TEST(Generators, BarabasiAlbertStructure) {
  Graph g = make_barabasi_albert(300, 4, 13);
  EXPECT_EQ(g.num_vertices(), 300u);
  // Each of the n-m-1 later vertices adds m edges; seed clique adds C(m+1,2).
  EXPECT_EQ(g.num_edges(), (300u - 5u) * 4u + 10u);
  // Degree skew: max degree well above the attachment count.
  EXPECT_GT(g.max_degree(), 12u);
}

TEST(Generators, RmatProducesSkew) {
  Graph g = make_rmat(9, 4.0, 0.57, 0.19, 0.19, 3);
  EXPECT_EQ(g.num_vertices(), 512u);
  EXPECT_GT(g.num_edges(), 500u);
  auto stats = compute_degree_stats(g, 32);
  EXPECT_GT(static_cast<double>(stats.max_degree), 3.0 * stats.mean_degree);
}

TEST(Labeling, RandomLabelsInRange) {
  auto labels = random_labels(1000, 10, 5);
  for (Label l : labels) EXPECT_LT(l, 10);
  // All 10 labels present in 1000 draws (overwhelmingly likely).
  auto g = make_path(1000).with_labels(labels);
  EXPECT_EQ(g.num_labels(), 10u);
}

TEST(Labeling, HistogramSumsToN) {
  Graph g = with_random_labels(make_barabasi_albert(200, 3, 1), 10, 2);
  auto hist = label_histogram(g);
  std::size_t total = 0;
  for (auto c : hist) total += c;
  EXPECT_EQ(total, 200u);
}

TEST(Labeling, VerticesByLabelPartition) {
  Graph g = with_random_labels(make_clique(50), 5, 3);
  auto part = vertices_by_label(g);
  std::size_t total = 0;
  for (const auto& vs : part) {
    EXPECT_TRUE(std::is_sorted(vs.begin(), vs.end()));
    for (VertexId v : vs) EXPECT_EQ(g.label(v), &vs - &part[0]);
    total += vs.size();
  }
  EXPECT_EQ(total, 50u);
}

TEST(DegreeStats, CliqueStats) {
  auto s = compute_degree_stats(make_clique(10), 4);
  EXPECT_EQ(s.max_degree, 9u);
  EXPECT_DOUBLE_EQ(s.median_degree, 9.0);
  EXPECT_DOUBLE_EQ(s.mean_degree, 9.0);
  EXPECT_DOUBLE_EQ(s.frac_above_cap, 1.0);
}

TEST(DegreeStats, StarStats) {
  auto s = compute_degree_stats(make_star(99), 32);
  EXPECT_EQ(s.max_degree, 99u);
  EXPECT_DOUBLE_EQ(s.median_degree, 1.0);
  EXPECT_NEAR(s.frac_above_cap, 1.0 / 100.0, 1e-12);
}

TEST(CapDegrees, EnforcesCap) {
  Graph g = make_barabasi_albert(400, 6, 21);
  ASSERT_GT(g.max_degree(), 20u);
  Graph capped = cap_degrees(g, 20, 5);
  EXPECT_LE(capped.max_degree(), 20u);
  EXPECT_EQ(capped.num_vertices(), g.num_vertices());
  EXPECT_LT(capped.num_edges(), g.num_edges());
}

TEST(CapDegrees, NoOpWhenUnderCap) {
  Graph g = make_cycle(10);
  Graph capped = cap_degrees(g, 5, 1);
  EXPECT_EQ(capped.num_edges(), g.num_edges());
}

TEST(CapDegrees, PreservesLabels) {
  Graph g = with_random_labels(make_barabasi_albert(100, 5, 2), 4, 9);
  Graph capped = cap_degrees(g, 8, 3);
  EXPECT_TRUE(capped.is_labeled());
  EXPECT_EQ(capped.labels(), g.labels());
}

TEST(Datasets, AllProxiesBuildAndAreDeterministic) {
  for (const auto& name : dataset_names()) {
    Graph a = make_dataset(name, 0.25);
    Graph b = make_dataset(name, 0.25);
    EXPECT_GT(a.num_vertices(), 0u) << name;
    EXPECT_GT(a.num_edges(), 0u) << name;
    EXPECT_EQ(a.col_idx(), b.col_idx()) << name;
  }
}

TEST(Datasets, SizeOrderingMatchesPaper) {
  // WikiVote proxy is the smallest, Friendster proxy the largest.
  Graph wiki = make_dataset("wiki_vote");
  Graph friendster = make_dataset("friendster");
  EXPECT_LT(wiki.num_vertices(), friendster.num_vertices());
}

TEST(Datasets, LabeledVariant) {
  Graph g = make_labeled_dataset("wiki_vote", 0.5, 10);
  EXPECT_TRUE(g.is_labeled());
  EXPECT_EQ(g.num_labels(), 10u);
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(make_dataset("nope"), check_error);
}

TEST(Datasets, MedianDegreeBelowWarpWidth) {
  // The paper's thread-underutilization argument (Table I): median degree of
  // real graphs is far below 32. Our proxies preserve that property.
  for (const auto& name : dataset_names()) {
    auto s = compute_degree_stats(make_dataset(name), dataset_report_cap());
    EXPECT_LT(s.median_degree, 32.0) << name;
  }
}

}  // namespace
}  // namespace stm
