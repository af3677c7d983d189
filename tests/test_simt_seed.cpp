// SIMT engine outer-loop ranges: the OuterRange argument of stmatch_match.
//
// Multi-device partitioning and resumed streams run the SIMT engine over a
// slice [begin, end) of the outermost loop. These tests nail that
// contract against recursive_count_range: every single-vertex range matches
// the recursive executor, the ranges partition the full count at every
// unroll factor, and an empty range yields zero.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/engine.hpp"
#include "core/recursive.hpp"
#include "graph/generators.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/pattern.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

TEST(SimtSeed, EmptyVertexRangeYieldsZero) {
  const Graph g = make_clique(6);
  const MatchingPlan plan(reorder_for_matching(Pattern::parse("0-1,1-2,2-0")),
                          {});
  // Nonzero begin == end: deliberately empty, not "all".
  const OuterRange range{3, 3};
  EXPECT_EQ(stmatch_match(g, plan, {}, nullptr, nullptr, range).count, 0u);
}

TEST(SimtSeed, SingleVertexRangesPartitionFullCountAcrossConfigs) {
  // The partition property must hold regardless of device shape / unroll.
  Rng rng(0xcafe);
  const Graph g = make_erdos_renyi(22, 0.25, rng());
  const MatchingPlan plan(
      reorder_for_matching(Pattern::parse("0-1,1-2,2-3,3-0")), {});
  const std::uint64_t full = recursive_count_range(g, plan, 0,
                                                   g.num_vertices());
  ASSERT_GT(full, 0u);
  for (const std::uint32_t unroll : {1u, 4u, 8u}) {
    std::uint64_t sum = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EngineConfig cfg;
      cfg.device.num_blocks = 2;
      cfg.device.warps_per_block = 2;
      cfg.unroll = unroll;
      const std::uint64_t got =
          stmatch_match(g, plan, cfg, nullptr, nullptr, {v, v + 1}).count;
      ASSERT_EQ(got, recursive_count_range(g, plan, v, v + 1))
          << "unroll=" << unroll << " v=" << v;
      sum += got;
    }
    EXPECT_EQ(sum, full) << "unroll=" << unroll;
  }
}

}  // namespace
}  // namespace stm
