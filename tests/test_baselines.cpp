// Tests for the recursive executor, host-parallel engine, Dryadic model,
// cuTS/GSI models and multi-device execution.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/dryadic.hpp"
#include "baselines/reference.hpp"
#include "baselines/subgraph_centric.hpp"
#include "core/engine.hpp"
#include "core/host_engine.hpp"
#include "core/multi_gpu.hpp"
#include "core/recursive.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"

namespace stm {
namespace {

Graph test_graph() {
  static const Graph g = make_erdos_renyi(35, 0.2, 99);
  return g;
}

MatchingPlan plan_for(const Pattern& p, PlanOptions opts = {}) {
  return MatchingPlan(reorder_for_matching(p), opts);
}

// ---- recursive executor ----------------------------------------------------

TEST(Recursive, MatchesReferenceAcrossQueries) {
  Graph g = test_graph();
  for (int q = 1; q <= num_queries(); ++q) {
    for (Induced induced : {Induced::kEdge, Induced::kVertex}) {
      MatchingPlan plan = plan_for(query(q), {induced, true,
                                              CountMode::kEmbeddings});
      EXPECT_EQ(recursive_count_range(g, plan, 0, g.num_vertices()),
                reference_count(g, query(q), {induced,
                                              CountMode::kEmbeddings}))
          << query_name(q);
    }
  }
}

TEST(Recursive, MatchesStackEngine) {
  Graph g = make_barabasi_albert(100, 4, 17);
  for (int q : {3, 6, 11, 13}) {
    MatchingPlan plan = plan_for(query(q));
    EXPECT_EQ(recursive_count_range(g, plan, 0, g.num_vertices()),
              stmatch_match(g, plan).count)
        << query_name(q);
  }
}

TEST(Recursive, RangeSplitsSum) {
  Graph g = test_graph();
  MatchingPlan plan = plan_for(query(4));
  const auto whole = recursive_count_range(g, plan, 0, g.num_vertices());
  std::uint64_t parts = recursive_count_range(g, plan, 0, 10) +
                        recursive_count_range(g, plan, 10, 20) +
                        recursive_count_range(g, plan, 20, g.num_vertices());
  EXPECT_EQ(parts, whole);
}

TEST(Recursive, CountersPopulated) {
  Graph g = test_graph();
  MatchingPlan plan = plan_for(query(4));
  RecursiveCounters counters;
  const auto count =
      recursive_count_range(g, plan, 0, g.num_vertices(), &counters);
  EXPECT_GT(counters.scalar_ops, 0u);
  EXPECT_GT(counters.sets_built, 0u);
  EXPECT_EQ(counters.partials[plan.size() - 1], count);
  EXPECT_EQ(counters.partials[0], g.num_vertices());
  // Partial counts shrink no faster than validity allows: every level-l
  // partial extends a level-(l-1) partial.
  for (std::size_t l = 1; l < plan.size(); ++l) {
    if (counters.partials[l] > 0) {
      EXPECT_GT(counters.partials[l - 1], 0u);
    }
  }
}

TEST(Recursive, SeedsCoverEdgeDecomposition) {
  Graph g = test_graph();
  MatchingPlan plan = plan_for(query(5));
  auto seeds = enumerate_seeds(g, plan);
  std::uint64_t total = 0;
  for (auto [v0, v1] : seeds) total += recursive_count_seed(g, plan, v0, v1);
  EXPECT_EQ(total, recursive_count_range(g, plan, 0, g.num_vertices()));
}

TEST(RecursiveExecutor, UniqueWalkIsTheConstrainedEmbeddingOrder) {
  // A unique plan starts each constrained level past its bound; that must
  // skip only candidates the constraints reject, in the seek walk too. The
  // graph is small because seeking from every position is quadratic.
  const Graph g = make_erdos_renyi(12, 0.4, 31);
  using Walk = std::vector<std::vector<VertexId>>;
  const auto collector = [](Walk* out) {
    return [out](const std::vector<VertexId>& m) {
      out->push_back(m);
      return true;
    };
  };
  for (int q = 1; q <= num_queries(); ++q) {
    const Pattern p = reorder_for_matching(query(q));
    for (Induced induced : {Induced::kEdge, Induced::kVertex}) {
      const MatchingPlan all(p, {induced, true, CountMode::kEmbeddings});
      const MatchingPlan unique(p, {induced, true, CountMode::kUniqueSubgraphs});
      Walk every, want, got;
      recursive_enumerate_range(g, all, 0, g.num_vertices(), collector(&every));
      for (const auto& m : every)
        if (std::all_of(unique.constraints().begin(),
                        unique.constraints().end(),
                        [&m](const SymmetryConstraint& c) {
                          return m[c.smaller] < m[c.larger];
                        }))
          want.push_back(m);
      recursive_enumerate_range(g, unique, 0, g.num_vertices(),
                                collector(&got));
      ASSERT_EQ(got, want) << query_name(q);
      for (std::size_t i = 0; i < got.size(); ++i) {
        Walk rest;
        recursive_enumerate_after(g, unique, got[i], collector(&rest));
        const auto same_v0_end = std::find_if(
            got.begin() + static_cast<std::ptrdiff_t>(i), got.end(),
            [&](const auto& m) { return m[0] != got[i][0]; });
        ASSERT_EQ(rest, Walk(got.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                             same_v0_end))
            << query_name(q) << " after #" << i;
      }
    }
  }
}

TEST(Recursive, InvalidSeedRejected) {
  Graph g = make_path(4);  // 0-1-2-3
  MatchingPlan plan = plan_for(Pattern::parse("0-1,1-2"));
  EXPECT_THROW(recursive_count_seed(g, plan, 0, 3, nullptr), check_error);
}

// ---- host-parallel engine ----------------------------------------------------

TEST(HostEngine, MatchesReference) {
  Graph g = make_barabasi_albert(200, 4, 5);
  for (int q : {1, 4, 10, 13}) {
    MatchingPlan plan = plan_for(query(q));
    HostEngineConfig cfg;
    cfg.num_threads = 4;
    auto result = host_match(g, plan, cfg);
    EXPECT_EQ(result.count, reference_count(g, query(q))) << query_name(q);
    EXPECT_GT(result.stats.scalar_ops, 0u);
    EXPECT_GE(result.stats.engine_ms, 0.0);
  }
}

TEST(HostEngine, ThreadCountInvariant) {
  Graph g = test_graph();
  MatchingPlan plan = plan_for(query(12));
  std::uint64_t expected = 0;
  for (std::size_t threads : {1u, 2u, 7u}) {
    HostEngineConfig cfg;
    cfg.num_threads = threads;
    auto result = host_match(g, plan, cfg);
    if (threads == 1)
      expected = result.count;
    else
      EXPECT_EQ(result.count, expected);
  }
}

TEST(HostEngine, LabeledMatch) {
  Graph g = with_random_labels(make_erdos_renyi(50, 0.25, 3), 4, 11);
  Pattern p = labeled_query(13, 4);
  MatchingPlan plan = plan_for(p);
  HostEngineConfig cfg;
  cfg.num_threads = 3;
  EXPECT_EQ(host_match(g, plan, cfg).count, reference_count(g, p));
}

// ---- Dryadic model -------------------------------------------------------------

TEST(Dryadic, CountMatchesReference) {
  Graph g = test_graph();
  for (int q : {1, 5, 8, 12, 16}) {
    auto result = dryadic_match(g, query(q));
    EXPECT_EQ(result.count, reference_count(g, query(q))) << query_name(q);
    EXPECT_GT(result.sim_ms, 0.0) << query_name(q);
  }
}

TEST(Dryadic, VertexInducedAndLabeled) {
  Graph g = with_random_labels(test_graph(), 4, 2);
  Pattern p = labeled_query(12, 4);
  auto result = dryadic_match(g, p, {Induced::kVertex, true,
                                     CountMode::kEmbeddings});
  EXPECT_EQ(result.count,
            reference_count(g, p, {Induced::kVertex, CountMode::kEmbeddings}));
}

TEST(Dryadic, CodeMotionReducesWork) {
  Graph g = make_barabasi_albert(150, 5, 31);
  DryadicConfig with;
  DryadicConfig without;
  without.code_motion = false;
  // Dense query: shared prefixes make motion pay off (paper: ~3x).
  auto a = dryadic_match(g, query(16), {}, with);
  auto b = dryadic_match(g, query(16), {}, without);
  EXPECT_EQ(a.count, b.count);
  EXPECT_LT(a.total_ops, b.total_ops);
}

TEST(Dryadic, ImbalanceGrowsWithQuerySize) {
  // Paper §III: edge-based distribution degrades for queries > 4 nodes.
  Graph g = make_barabasi_albert(300, 5, 13);
  DryadicConfig cfg;
  cfg.threads = 16;
  auto small = dryadic_match(g, Pattern::parse("0-1,1-2,2-0"), {}, cfg);
  auto large = dryadic_match(g, query(6), {}, cfg);
  EXPECT_GE(large.imbalance, small.imbalance * 0.9);
  EXPECT_GE(large.imbalance, 1.0);
}

TEST(Dryadic, SingleEdgePattern) {
  Graph g = make_cycle(10);
  auto result = dryadic_match(g, Pattern::parse("0-1"));
  EXPECT_EQ(result.count, 20u);
}

TEST(Dryadic, EmptyGraph) {
  Graph g = GraphBuilder(0).build();
  EXPECT_EQ(dryadic_match(g, query(1)).count, 0u);
}

// ---- cuTS / GSI models -----------------------------------------------------------

TEST(Cuts, CountMatchesReference) {
  Graph g = test_graph();
  for (int q : {1, 4, 8, 10}) {
    auto result = cuts_match(g, query(q));
    ASSERT_FALSE(result.out_of_memory) << query_name(q);
    EXPECT_EQ(result.count, reference_count(g, query(q))) << query_name(q);
    EXPECT_GT(result.kernel_launches, 0u);
    EXPECT_GT(result.sim_ms, 0.0);
  }
}

TEST(Cuts, LaunchesScaleWithPatternDepth) {
  Graph g = test_graph();
  auto p5 = cuts_match(g, query(1));
  auto p7 = cuts_match(g, query(17));
  EXPECT_GT(p7.kernel_launches, p5.kernel_launches);
}

TEST(Cuts, RejectsLabeledQueries) {
  EXPECT_THROW(cuts_match(test_graph(), labeled_query(1)), check_error);
}

TEST(Cuts, OutOfMemoryOnTinyBudget) {
  Graph g = make_barabasi_albert(200, 6, 7);
  CutsConfig cfg;
  cfg.device.global_mem_bytes = 256;  // absurdly small
  cfg.max_dfs_chunks = 2;
  auto result = cuts_match(g, query(9), cfg);
  EXPECT_TRUE(result.out_of_memory);
  EXPECT_EQ(result.count, 0u);
}

TEST(Cuts, DfsChunkingAvoidsOomWithinLimit) {
  Graph g = make_barabasi_albert(200, 6, 7);
  CutsConfig tight;
  tight.device.global_mem_bytes = 1 << 16;
  tight.max_dfs_chunks = 1 << 20;
  CutsConfig loose;
  auto tight_result = cuts_match(g, query(9), tight);
  auto loose_result = cuts_match(g, query(9), loose);
  ASSERT_FALSE(tight_result.out_of_memory);
  EXPECT_EQ(tight_result.count, loose_result.count);
  // Chunking costs extra launches.
  EXPECT_GT(tight_result.kernel_launches, loose_result.kernel_launches);
  EXPECT_GT(tight_result.sim_ms, loose_result.sim_ms);
}

TEST(Gsi, CountMatchesReferenceLabeled) {
  Graph g = with_random_labels(test_graph(), 4, 21);
  for (int q : {2, 5, 11}) {
    Pattern p = labeled_query(q, 4);
    auto result = gsi_match(g, p);
    ASSERT_FALSE(result.out_of_memory) << query_name(q);
    EXPECT_EQ(result.count, reference_count(g, p)) << query_name(q);
  }
}

TEST(Gsi, OomWithoutDfsFallback) {
  Graph g = make_barabasi_albert(300, 6, 3);
  GsiConfig cfg;
  cfg.device.global_mem_bytes = 1 << 12;
  auto result = gsi_match(g, query(9), cfg);
  EXPECT_TRUE(result.out_of_memory);
  // cuTS survives the same budget thanks to chunking.
  CutsConfig ccfg;
  ccfg.device.global_mem_bytes = 1 << 12;
  ccfg.max_dfs_chunks = 1 << 24;
  EXPECT_FALSE(cuts_match(g, query(9), ccfg).out_of_memory);
}

TEST(Gsi, SlowerThanCutsOnSameWorkload) {
  // GSI's flat tables + join overhead make it the slower GPU baseline
  // (paper: cuTS dominates GSI).
  Graph g = test_graph();
  auto gsi = gsi_match(g, query(10));
  auto cuts = cuts_match(g, query(10));
  ASSERT_FALSE(gsi.out_of_memory);
  EXPECT_GT(gsi.sim_ms, cuts.sim_ms);
}

TEST(LevelProfileTest, PartialsAreMonotoneUntilPruning) {
  Graph g = test_graph();
  auto profile =
      profile_levels(g, query(8), {Induced::kEdge, false,
                                   CountMode::kEmbeddings});
  EXPECT_EQ(profile.levels, 5u);
  EXPECT_EQ(profile.partials[0], g.num_vertices());
  EXPECT_EQ(profile.count, reference_count(g, query(8)));
}

// ---- multi-device ---------------------------------------------------------------

TEST(MultiGpu, CountInvariantAcrossDeviceCounts) {
  Graph g = make_barabasi_albert(150, 4, 41);
  MatchingPlan plan = plan_for(query(12));
  EngineConfig cfg;
  cfg.device.num_blocks = 4;
  cfg.device.warps_per_block = 4;
  const auto expected = stmatch_match(g, plan, cfg).count;
  for (std::size_t devices : {1u, 2u, 4u}) {
    auto result = stmatch_match_multi_gpu(g, plan, devices, cfg);
    EXPECT_EQ(result.count, expected) << devices;
    EXPECT_EQ(result.per_device.size(), devices);
  }
}

TEST(MultiGpu, MoreDevicesNotSlower) {
  Graph g = make_barabasi_albert(400, 5, 2);
  MatchingPlan plan = plan_for(query(13));
  EngineConfig cfg;
  cfg.device.num_blocks = 4;
  cfg.device.warps_per_block = 4;
  auto one = stmatch_match_multi_gpu(g, plan, 1, cfg);
  auto four = stmatch_match_multi_gpu(g, plan, 4, cfg);
  EXPECT_EQ(one.count, four.count);
  EXPECT_LT(four.sim_ms, one.sim_ms);
}

}  // namespace
}  // namespace stm
