// Correctness tests for the STMatch engine against the brute-force reference
// across queries, semantics, unroll factors, stealing modes and devices.
#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "core/engine.hpp"
#include "core/run.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"

namespace stm {
namespace {

Graph small_graph() {
  static const Graph g = make_erdos_renyi(26, 0.22, 1234);
  return g;
}

Graph small_labeled_graph() {
  static const Graph g =
      with_random_labels(make_erdos_renyi(40, 0.25, 77), 4, 5);
  return g;
}

EngineConfig tiny_device() {
  EngineConfig cfg;
  cfg.device.num_blocks = 4;
  cfg.device.warps_per_block = 4;
  cfg.unroll = 4;
  cfg.chunk_size = 4;
  return cfg;
}

TEST(Engine, TriangleOnClique) {
  Graph g = make_clique(6);
  auto result = stmatch_match_pattern(g, Pattern::parse("0-1,1-2,2-0"), {},
                                      tiny_device());
  EXPECT_EQ(result.count, 6u * 5u * 4u);
}

TEST(Engine, EdgeCount) {
  Graph g = make_cycle(12);
  auto result =
      stmatch_match_pattern(g, Pattern::parse("0-1"), {}, tiny_device());
  EXPECT_EQ(result.count, 24u);
}

TEST(Engine, EmptyGraphGivesZero) {
  Graph g = GraphBuilder(0).build();
  auto result =
      stmatch_match_pattern(g, Pattern::parse("0-1,1-2"), {}, tiny_device());
  EXPECT_EQ(result.count, 0u);
}

TEST(Engine, PatternLargerThanGraph) {
  auto result =
      stmatch_match_pattern(make_clique(3), query(8), {}, tiny_device());
  EXPECT_EQ(result.count, 0u);
}

TEST(Engine, GraphWithIsolatedVertices) {
  GraphBuilder b(20);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  auto result = stmatch_match_pattern(b.build(), Pattern::parse("0-1,1-2,2-0"),
                                      {}, tiny_device());
  EXPECT_EQ(result.count, 6u);
}

// ---- full sweep: every query, both semantics, against the reference -------

class EngineQuerySweep
    : public ::testing::TestWithParam<std::tuple<int, Induced>> {};

TEST_P(EngineQuerySweep, MatchesReference) {
  const auto [q, induced] = GetParam();
  Graph g = small_graph();
  PlanOptions popts{induced, true, CountMode::kEmbeddings};
  const auto expected =
      reference_count(g, query(q), {induced, CountMode::kEmbeddings});
  const auto result = stmatch_match_pattern(g, query(q), popts, tiny_device());
  EXPECT_EQ(result.count, expected) << query_name(q);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, EngineQuerySweep,
    ::testing::Combine(::testing::Range(1, 25),
                       ::testing::Values(Induced::kEdge, Induced::kVertex)),
    [](const auto& info) {
      return query_name(std::get<0>(info.param)) +
             (std::get<1>(info.param) == Induced::kEdge ? "_edge" : "_vertex");
    });

// ---- equivalence properties ------------------------------------------------

class EngineUnrollSweep : public ::testing::TestWithParam<int> {};

TEST_P(EngineUnrollSweep, CountInvariantUnderUnroll) {
  Graph g = small_graph();
  for (int q : {3, 6, 12, 14, 21}) {
    EngineConfig cfg = tiny_device();
    cfg.unroll = static_cast<std::uint32_t>(GetParam());
    const auto expected = reference_count(g, query(q));
    EXPECT_EQ(stmatch_match_pattern(g, query(q), {}, cfg).count, expected)
        << query_name(q) << " unroll=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Unroll1248, EngineUnrollSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(Engine, CountInvariantUnderCodeMotion) {
  Graph g = small_graph();
  for (int q : {2, 5, 10, 13, 20, 22}) {
    for (Induced induced : {Induced::kEdge, Induced::kVertex}) {
      PlanOptions with{induced, true, CountMode::kEmbeddings};
      PlanOptions without{induced, false, CountMode::kEmbeddings};
      EXPECT_EQ(stmatch_match_pattern(g, query(q), with, tiny_device()).count,
                stmatch_match_pattern(g, query(q), without, tiny_device()).count)
          << query_name(q);
    }
  }
}

TEST(Engine, CountInvariantUnderStealModes) {
  Graph g = make_barabasi_albert(150, 4, 9);
  const auto expected = reference_count(g, query(4));
  for (bool local : {false, true}) {
    for (bool global : {false, true}) {
      EngineConfig cfg = tiny_device();
      cfg.local_steal = local;
      cfg.global_steal = global;
      EXPECT_EQ(stmatch_match_pattern(g, query(4), {}, cfg).count, expected)
          << "local=" << local << " global=" << global;
    }
  }
}

TEST(Engine, CountInvariantUnderDeviceShape) {
  Graph g = small_graph();
  const auto expected = reference_count(g, query(13));
  for (auto [blocks, warps] : {std::pair{1, 1}, {1, 8}, {8, 1}, {6, 5}}) {
    EngineConfig cfg = tiny_device();
    cfg.device.num_blocks = static_cast<std::uint32_t>(blocks);
    cfg.device.warps_per_block = static_cast<std::uint32_t>(warps);
    EXPECT_EQ(stmatch_match_pattern(g, query(13), {}, cfg).count, expected)
        << blocks << "x" << warps;
  }
}

TEST(Engine, CountInvariantUnderChunkSize) {
  Graph g = small_graph();
  const auto expected = reference_count(g, query(10));
  for (std::uint32_t chunk : {1u, 3u, 17u, 1000u}) {
    EngineConfig cfg = tiny_device();
    cfg.chunk_size = chunk;
    EXPECT_EQ(stmatch_match_pattern(g, query(10), {}, cfg).count, expected);
  }
}

TEST(Engine, PartitionedRangesSumToWhole) {
  // Multi-GPU partitioning (paper Fig. 11): outermost iterations divided.
  Graph g = small_graph();
  const auto expected = reference_count(g, query(12));
  const MatchingPlan plan(reorder_for_matching(query(12)), {});
  const VertexId n = g.num_vertices();
  std::uint64_t total = 0;
  for (VertexId part = 0; part < 3; ++part) {
    const OuterRange range{part * n / 3, (part + 1) * n / 3};
    total += stmatch_match(g, plan, tiny_device(), nullptr, nullptr, range)
                 .count;
  }
  EXPECT_EQ(total, expected);
}

TEST(Engine, RunEngineCountsCoverEveryOuterVertex) {
  // Only a stream starts the outer loop past vertex 0: a count that skipped
  // vertices would come back partial with status kOk.
  Graph g = small_graph();
  const MatchingPlan plan(reorder_for_matching(query(12)), {});
  for (EngineKind kind :
       {EngineKind::kSimt, EngineKind::kHost, EngineKind::kReference}) {
    EXPECT_THROW(run_engine(kind, g, plan, {}, tiny_device(), 0, nullptr,
                            nullptr, g.num_vertices() / 2),
                 check_error)
        << to_string(kind);
    EXPECT_EQ(run_engine(kind, g, plan, {}, tiny_device()).count,
              reference_count(g, query(12)))
        << to_string(kind);
  }
}

// ---- labeled matching -------------------------------------------------------

TEST(Engine, LabeledMatchesReference) {
  Graph g = small_labeled_graph();
  for (int q : {1, 4, 8, 11, 16}) {
    Pattern p = query(q).with_labels(
        std::vector<Label>(query(q).size(), 0));  // uniform label 0
    const auto expected = reference_count(g, p);
    EXPECT_EQ(stmatch_match_pattern(g, p, {}, tiny_device()).count, expected)
        << query_name(q);
  }
}

TEST(Engine, LabeledMixedMatchesReference) {
  Graph g = small_labeled_graph();
  for (int q : {2, 5, 9, 13, 15, 18, 22}) {
    Pattern p = labeled_query(q, 4);
    for (Induced induced : {Induced::kEdge, Induced::kVertex}) {
      PlanOptions popts{induced, true, CountMode::kEmbeddings};
      const auto expected =
          reference_count(g, p, {induced, CountMode::kEmbeddings});
      EXPECT_EQ(stmatch_match_pattern(g, p, popts, tiny_device()).count,
                expected)
          << query_name(q);
    }
  }
}

TEST(Engine, LabeledCodeMotionEquivalence) {
  Graph g = small_labeled_graph();
  for (int q : {6, 13, 22}) {
    Pattern p = labeled_query(q, 4);
    PlanOptions without{Induced::kEdge, false, CountMode::kEmbeddings};
    EXPECT_EQ(stmatch_match_pattern(g, p, {}, tiny_device()).count,
              stmatch_match_pattern(g, p, without, tiny_device()).count)
        << query_name(q);
  }
}

TEST(Engine, ImpossibleLabelGivesZero) {
  Graph g = small_labeled_graph();  // labels 0..3
  Pattern p = Pattern::parse("0-1,1-2").with_labels({9, 9, 9});
  EXPECT_EQ(stmatch_match_pattern(g, p, {}, tiny_device()).count, 0u);
}

TEST(Engine, LabeledPatternOnUnlabeledGraphThrows) {
  Pattern p = Pattern::parse("0-1").with_labels({0, 1});
  EXPECT_THROW(stmatch_match_pattern(small_graph(), p, {}, tiny_device()),
               check_error);
}

// ---- unique-subgraph counting ----------------------------------------------

TEST(Engine, UniqueSubgraphCounting) {
  Graph g = small_graph();
  for (int q : {1, 3, 8, 10}) {
    PlanOptions popts{Induced::kEdge, true, CountMode::kUniqueSubgraphs};
    const auto expected =
        reference_count(g, query(q), {Induced::kEdge,
                                      CountMode::kUniqueSubgraphs});
    EXPECT_EQ(stmatch_match_pattern(g, query(q), popts, tiny_device()).count,
              expected)
        << query_name(q);
  }
}

TEST(Engine, UniqueTimesAutEqualsEmbeddings) {
  Graph g = make_erdos_renyi(30, 0.3, 42);
  Pattern p = query(8);  // K5, |Aut| = 120
  PlanOptions unique{Induced::kEdge, true, CountMode::kUniqueSubgraphs};
  const auto u = stmatch_match_pattern(g, p, unique, tiny_device()).count;
  const auto e = stmatch_match_pattern(g, p, {}, tiny_device()).count;
  EXPECT_EQ(u * 120, e);
}

// ---- configuration validation ------------------------------------------------

TEST(Engine, SharedMemoryOverflowRejected) {
  EngineConfig cfg = tiny_device();
  cfg.device.shared_mem_bytes = 1024;  // far too small for 32 warps
  cfg.device.warps_per_block = 32;
  cfg.unroll = 32;
  EXPECT_THROW(stmatch_match_pattern(small_graph(), query(24), {}, cfg),
               check_error);
}

TEST(Engine, InvalidUnrollRejected) {
  EngineConfig cfg = tiny_device();
  cfg.unroll = 0;
  EXPECT_THROW(stmatch_match_pattern(small_graph(), query(1), {}, cfg),
               check_error);
  cfg.unroll = 64;
  EXPECT_THROW(stmatch_match_pattern(small_graph(), query(1), {}, cfg),
               check_error);
}

// ---- statistics sanity -------------------------------------------------------

TEST(Engine, StatsAreConsistent) {
  Graph g = make_barabasi_albert(200, 5, 3);
  auto result = stmatch_match_pattern(g, query(4), {}, tiny_device());
  const auto& s = result.stats;
  EXPECT_GT(s.makespan_cycles, 0u);
  EXPECT_GE(s.makespan_cycles, EngineConfig{}.cost.kernel_launch);
  EXPECT_GT(s.busy_cycles, 0u);
  EXPECT_GT(s.occupancy, 0.0);
  EXPECT_LE(s.occupancy, 1.0 + 1e-9);
  EXPECT_GT(s.set_ops.waves, 0u);
  EXPECT_GT(s.set_ops.utilization(), 0.0);
  EXPECT_LE(s.set_ops.utilization(), 1.0);
  EXPECT_GT(s.chunks_grabbed, 0u);
  EXPECT_GT(s.stack_bytes, 0u);
  EXPECT_GT(s.sim_ms, 0.0);
}

TEST(Engine, DeterministicAcrossRuns) {
  Graph g = make_barabasi_albert(120, 5, 8);
  EngineConfig cfg = tiny_device();
  auto a = stmatch_match_pattern(g, query(13), {}, cfg);
  auto b = stmatch_match_pattern(g, query(13), {}, cfg);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.stats.makespan_cycles, b.stats.makespan_cycles);
  EXPECT_EQ(a.stats.local_steals, b.stats.local_steals);
  EXPECT_EQ(a.stats.global_steals, b.stats.global_steals);
}

TEST(Engine, LocalStealingHappensAndHelpsOnSkewedWork) {
  // Skewed workload: a BA hub graph. Without stealing the warp owning the
  // hubs dominates the makespan.
  Graph g = make_barabasi_albert(300, 6, 4);
  EngineConfig no_steal = tiny_device();
  no_steal.local_steal = false;
  no_steal.global_steal = false;
  EngineConfig local = no_steal;
  local.local_steal = true;
  auto baseline = stmatch_match_pattern(g, query(6), {}, no_steal);
  auto stolen = stmatch_match_pattern(g, query(6), {}, local);
  EXPECT_EQ(baseline.count, stolen.count);
  EXPECT_GT(stolen.stats.local_steals, 0u);
  EXPECT_LT(stolen.stats.makespan_cycles, baseline.stats.makespan_cycles);
  EXPECT_GT(stolen.stats.occupancy, baseline.stats.occupancy);
}

TEST(Engine, GlobalStealingActivatesAcrossBlocks) {
  Graph g = make_barabasi_albert(400, 6, 21);
  EngineConfig cfg = tiny_device();
  cfg.device.num_blocks = 6;
  cfg.device.warps_per_block = 2;
  cfg.chunk_size = 64;  // coarse chunks force imbalance across blocks
  auto result = stmatch_match_pattern(g, query(6), {}, cfg);
  EXPECT_EQ(result.count, reference_count(g, query(6)));
  EXPECT_GT(result.stats.global_steals, 0u);
}

TEST(Engine, UtilizationRisesWithUnroll) {
  // Sparse graph => small candidate sets => low lane occupancy at unroll 1
  // (the paper's Fig. 13 premise).
  Graph g = make_barabasi_albert(300, 3, 6);
  EngineConfig u1 = tiny_device();
  u1.unroll = 1;
  EngineConfig u8 = tiny_device();
  u8.unroll = 8;
  auto r1 = stmatch_match_pattern(g, query(10), {}, u1);
  auto r8 = stmatch_match_pattern(g, query(10), {}, u8);
  EXPECT_EQ(r1.count, r8.count);
  EXPECT_GT(r8.stats.set_ops.utilization(),
            r1.stats.set_ops.utilization() * 1.2);
}

TEST(Engine, SingleKernelLaunchCharged) {
  // STMatch's defining property: one launch regardless of pattern depth.
  Graph g = small_graph();
  auto r5 = stmatch_match_pattern(g, query(1), {}, tiny_device());
  auto r7 = stmatch_match_pattern(g, query(17), {}, tiny_device());
  const auto launch = EngineConfig{}.cost.kernel_launch;
  EXPECT_GE(r5.stats.makespan_cycles, launch);
  EXPECT_GE(r7.stats.makespan_cycles, launch);
}

}  // namespace
}  // namespace stm
