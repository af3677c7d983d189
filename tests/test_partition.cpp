// Tests for the graph partitioner: ownership assignment across strategies,
// shard materialization (local remaps), the min-shard cut-edge rule,
// balance reporting, and the incremental refresh after dynamic update
// batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "dist/partition.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "util/check.hpp"

namespace stm {
namespace {

using dist::Partition;
using dist::PartitionConfig;
using dist::PartitionStrategy;
using dist::Shard;

/// Every undirected edge of `g`, u < v, sorted.
std::vector<std::pair<VertexId, VertexId>> edge_set(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  return edges;
}

PartitionConfig config(std::uint32_t shards, PartitionStrategy strategy) {
  PartitionConfig cfg;
  cfg.num_shards = shards;
  cfg.strategy = strategy;
  return cfg;
}

const PartitionStrategy kAllStrategies[] = {
    PartitionStrategy::kContiguous, PartitionStrategy::kDegreeBalanced,
    PartitionStrategy::kHash, PartitionStrategy::kInterleaved};

// ---------------------------------------------------------------------------
// Ownership and materialization invariants
// ---------------------------------------------------------------------------

TEST(Partition, OwnershipCoversEveryVertexForAllStrategies) {
  const Graph g = make_erdos_renyi(60, 0.12, 5);
  for (PartitionStrategy strategy : kAllStrategies) {
    for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      const Partition p = dist::partition_graph(g, config(shards, strategy));
      ASSERT_EQ(p.owner.size(), g.num_vertices());
      ASSERT_EQ(p.shards.size(), shards);
      std::vector<VertexId> owned_total(shards, 0);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_LT(p.owner_of(v), shards);
        ++owned_total[p.owner_of(v)];
      }
      // The materialized shards reproduce the ownership vector exactly.
      for (std::uint32_t s = 0; s < shards; ++s) {
        EXPECT_EQ(p.shards[s]->num_owned(), owned_total[s])
            << to_string(strategy) << " shard " << s;
        for (VertexId global : p.shards[s]->to_global)
          EXPECT_EQ(p.owner_of(global), s);
      }
    }
  }
}

TEST(Partition, ContiguousOwnershipMatchesOuterSliceRanges) {
  // Shard s owns the outer-loop slice [n*s/S, n*(s+1)/S).
  const Graph g = make_erdos_renyi(37, 0.1, 9);  // odd size: uneven ranges
  const VertexId n = g.num_vertices();
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    const Partition p =
        dist::partition_graph(g, config(shards, PartitionStrategy::kContiguous));
    for (std::uint32_t s = 0; s < shards; ++s) {
      const VertexId begin = n * s / shards;
      const VertexId end = n * (s + 1) / shards;
      EXPECT_EQ(p.shards[s]->num_owned(), end - begin);
      for (VertexId v = begin; v < end; ++v) EXPECT_EQ(p.owner_of(v), s);
    }
  }
}

TEST(Partition, InterleavedOwnershipIsVertexModShards) {
  const Graph g = make_erdos_renyi(40, 0.1, 3);
  const Partition p =
      dist::partition_graph(g, config(4, PartitionStrategy::kInterleaved));
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(p.owner_of(v), v % 4);
}

TEST(Partition, LocalRemapRoundTripsAndPreservesEdges) {
  const Graph g = make_barabasi_albert(50, 3, 11);
  for (PartitionStrategy strategy : kAllStrategies) {
    const Partition p = dist::partition_graph(g, config(4, strategy));
    for (const auto& shard : p.shards) {
      // to_global is strictly ascending (the remap is order-preserving).
      EXPECT_TRUE(std::is_sorted(shard->to_global.begin(),
                                 shard->to_global.end()));
      // Every local edge maps to a global edge with both endpoints owned.
      for (const auto& [lu, lv] : edge_set(shard->local)) {
        const VertexId gu = shard->to_global[lu];
        const VertexId gv = shard->to_global[lv];
        EXPECT_TRUE(g.has_edge(gu, gv));
        EXPECT_EQ(p.owner_of(gu), shard->id);
        EXPECT_EQ(p.owner_of(gv), shard->id);
      }
      // And every owned-owned global edge appears in the local graph.
      EdgeId owned_edges = 0;
      for (VertexId v : shard->to_global)
        for (VertexId w : g.neighbors(v))
          if (v < w && p.owner_of(w) == shard->id) ++owned_edges;
      EXPECT_EQ(shard->local.num_edges(), owned_edges);
    }
  }
}

TEST(Partition, CutEdgesFollowMinShardRuleAndCoverEveryCrossEdge) {
  const Graph g = make_barabasi_albert(40, 4, 31);
  for (PartitionStrategy strategy : kAllStrategies) {
    const Partition p = dist::partition_graph(g, config(4, strategy));
    // Per-shard lists: owned by min-shard rule, sorted, cross-shard.
    std::vector<std::pair<VertexId, VertexId>> collected;
    for (const auto& shard : p.shards) {
      EXPECT_TRUE(std::is_sorted(shard->cut_edges.begin(),
                                 shard->cut_edges.end()));
      for (const auto& [u, v] : shard->cut_edges) {
        EXPECT_LT(u, v);
        EXPECT_NE(p.owner_of(u), p.owner_of(v));
        EXPECT_EQ(p.cut_owner(u, v), shard->id);
        collected.emplace_back(u, v);
      }
    }
    // The global list is the owner-major concatenation.
    EXPECT_EQ(p.cut_edges, collected);
    // Together with the intra edges it covers the graph exactly once.
    std::set<std::pair<VertexId, VertexId>> cut(collected.begin(),
                                                collected.end());
    EXPECT_EQ(cut.size(), collected.size());  // no duplicates
    EdgeId cross = 0;
    for (const auto& [u, v] : edge_set(g)) {
      if (p.owner_of(u) != p.owner_of(v)) {
        ++cross;
        EXPECT_TRUE(cut.count({u, v})) << u << "-" << v;
      }
    }
    EXPECT_EQ(cross, p.cut_edges.size());
    EdgeId local_total = 0;
    for (const auto& shard : p.shards) local_total += shard->local.num_edges();
    EXPECT_EQ(local_total + p.cut_edges.size(), g.num_edges());
    EXPECT_EQ(p.num_edges, g.num_edges());
  }
}

TEST(Partition, LabelsArePreservedInLocalGraphs) {
  Graph g = with_random_labels(make_erdos_renyi(30, 0.2, 7), 3, 99);
  const Partition p =
      dist::partition_graph(g, config(3, PartitionStrategy::kHash));
  for (const auto& shard : p.shards) {
    ASSERT_TRUE(shard->local.is_labeled());
    for (VertexId lv = 0; lv < shard->local.num_vertices(); ++lv)
      EXPECT_EQ(shard->local.label(lv), g.label(shard->to_global[lv]));
  }
}

TEST(Partition, DeterministicAcrossRepeatedBuilds) {
  const Graph g = make_barabasi_albert(60, 3, 17);
  for (PartitionStrategy strategy : kAllStrategies) {
    const Partition a = dist::partition_graph(g, config(4, strategy));
    const Partition b = dist::partition_graph(g, config(4, strategy));
    EXPECT_EQ(a.owner, b.owner);
    EXPECT_EQ(a.cut_edges, b.cut_edges);
  }
}

TEST(Partition, HashSaltChangesTheAssignment) {
  const Graph g = make_erdos_renyi(64, 0.1, 2);
  PartitionConfig cfg = config(4, PartitionStrategy::kHash);
  const Partition a = dist::partition_graph(g, cfg);
  cfg.hash_salt = 12345;
  const Partition b = dist::partition_graph(g, cfg);
  EXPECT_NE(a.owner, b.owner);
}

TEST(Partition, MoreShardsThanVerticesLeavesEmptyShards) {
  const Graph g = make_clique(3);
  const Partition p =
      dist::partition_graph(g, config(8, PartitionStrategy::kContiguous));
  ASSERT_EQ(p.shards.size(), 8u);
  VertexId owned = 0;
  for (const auto& shard : p.shards) owned += shard->num_owned();
  EXPECT_EQ(owned, g.num_vertices());
}

// ---------------------------------------------------------------------------
// Balance report
// ---------------------------------------------------------------------------

TEST(Partition, BalanceReportTalliesAHandComputedSplit) {
  // Path 0-1-2-3 split down the middle: one intra edge per shard, one cut.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const BalanceReport rep = balance_report(g, {0, 0, 1, 1}, 2);
  ASSERT_EQ(rep.shards.size(), 2u);
  EXPECT_EQ(rep.shards[0].vertices, 2u);
  EXPECT_EQ(rep.shards[0].intra_edges, 1u);
  EXPECT_EQ(rep.shards[0].incident_cut_edges, 1u);
  EXPECT_EQ(rep.shards[1].intra_edges, 1u);
  EXPECT_EQ(rep.cut_edges, 1u);
  EXPECT_DOUBLE_EQ(rep.cut_fraction, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(rep.vertex_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(rep.edge_imbalance, 1.0);  // 1.5 load each
}

TEST(Partition, DegreeBalancedBeatsContiguousOnSkewedGraphs) {
  const Graph g = make_barabasi_albert(400, 4, 77);
  const BalanceReport contiguous =
      dist::partition_graph(g, config(4, PartitionStrategy::kContiguous))
          .balance(g);
  const BalanceReport balanced =
      dist::partition_graph(g, config(4, PartitionStrategy::kDegreeBalanced))
          .balance(g);
  // BA hubs are the low-id vertices, so a contiguous split concentrates the
  // edge load in shard 0; the greedy LPT split is the fix.
  EXPECT_LT(balanced.edge_imbalance, contiguous.edge_imbalance);
}

// ---------------------------------------------------------------------------
// Incremental refresh
// ---------------------------------------------------------------------------

TEST(Partition, RefreshMatchesFreshPartitionForIdBasedStrategies) {
  const Graph g = make_erdos_renyi(50, 0.12, 13);
  MutableGraph dyn(g);
  UpdateBatch batch;
  batch.insertions = {{0, 47}, {3, 44}, {10, 30}};
  batch.deletions = {};
  for (VertexId u = 0; u < g.num_vertices() && batch.deletions.empty(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) {
        batch.deletions = {{u, v}};
        break;
      }
  const ApplyResult applied = dyn.apply(batch);
  const Graph updated = applied.snapshot->compacted();

  // Ownership of the id-based strategies ignores the adjacency, so sticky
  // refresh and a fresh build of the updated graph must agree exactly.
  for (PartitionStrategy strategy :
       {PartitionStrategy::kContiguous, PartitionStrategy::kHash,
        PartitionStrategy::kInterleaved}) {
    const Partition before = dist::partition_graph(g, config(4, strategy));
    std::vector<std::uint32_t> touched;
    const Partition refreshed = dist::refresh_partition(
        before, applied.snapshot->view(), applied.applied, &touched);
    const Partition fresh = dist::partition_graph(updated, config(4, strategy));
    EXPECT_EQ(refreshed.owner, fresh.owner);
    EXPECT_EQ(refreshed.cut_edges, fresh.cut_edges);
    EXPECT_EQ(refreshed.num_edges, fresh.num_edges);
    ASSERT_EQ(refreshed.shards.size(), fresh.shards.size());
    for (std::size_t s = 0; s < fresh.shards.size(); ++s) {
      EXPECT_EQ(refreshed.shards[s]->to_global, fresh.shards[s]->to_global);
      EXPECT_EQ(refreshed.shards[s]->cut_edges, fresh.shards[s]->cut_edges);
      EXPECT_EQ(edge_set(refreshed.shards[s]->local),
                edge_set(fresh.shards[s]->local));
    }
    EXPECT_FALSE(touched.empty());
  }
}

TEST(Partition, RefreshSharesUntouchedShards) {
  // A shard's local graph and cut edges read only its owned vertices'
  // adjacency, so a refresh rebuilds exactly the shards owning a delta
  // endpoint and pointer-shares the rest, including shards that own only a
  // neighbor of an endpoint.
  const Graph g = make_erdos_renyi(80, 0.06, 19);
  for (PartitionStrategy strategy :
       {PartitionStrategy::kContiguous, PartitionStrategy::kHash}) {
    const Partition before = dist::partition_graph(g, config(4, strategy));
    std::size_t neighbor_only_shards = 0;
    for (VertexId u = 0; u < g.num_vertices(); u += 7) {
      const VertexId v = (u * 13 + 5) % g.num_vertices();
      if (u == v) continue;
      // One edge toggled, plus one deleted edge of a third vertex.
      UpdateBatch batch;
      if (g.has_edge(u, v))
        batch.deletions = {{u, v}};
      else
        batch.insertions = {{u, v}};
      const VertexId x = (u + 40) % g.num_vertices();
      if (g.degree(x) > 0 && x != u && x != v)
        batch.deletions.emplace_back(x, g.neighbors(x)[0]);
      MutableGraph dyn(g);
      const ApplyResult applied = dyn.apply(batch);

      std::set<std::uint32_t> owners;
      std::set<std::uint32_t> neighbor_owners;
      for (const auto* edges :
           {&applied.applied.inserted, &applied.applied.deleted})
        for (const auto& [a, b] : *edges)
          for (VertexId e : {a, b}) {
            owners.insert(before.owner_of(e));
            for (VertexId w : g.neighbors(e))
              neighbor_owners.insert(before.owner_of(w));
          }
      for (std::uint32_t s : neighbor_owners)
        neighbor_only_shards += owners.count(s) == 0 ? 1 : 0;

      std::vector<std::uint32_t> touched;
      const Partition refreshed = dist::refresh_partition(
          before, applied.snapshot->view(), applied.applied, &touched);
      EXPECT_EQ(touched,
                std::vector<std::uint32_t>(owners.begin(), owners.end()))
          << to_string(strategy) << " u=" << u << " v=" << v;
      for (std::uint32_t s = 0; s < 4; ++s) {
        if (owners.count(s) != 0)
          EXPECT_NE(refreshed.shards[s].get(), before.shards[s].get());
        else
          EXPECT_EQ(refreshed.shards[s].get(), before.shards[s].get());
      }
    }
    // The batches reach shards through endpoint neighbors alone, so the
    // rule above is stricter than "owners of the endpoints' neighborhoods".
    EXPECT_GT(neighbor_only_shards, 0u) << to_string(strategy);
  }
}

TEST(Partition, StrategyNamesRoundTrip) {
  for (PartitionStrategy strategy : kAllStrategies)
    EXPECT_EQ(dist::partition_strategy_from_string(dist::to_string(strategy)),
              strategy);
  // The CLI-facing hyphen spelling parses too.
  EXPECT_EQ(dist::partition_strategy_from_string("degree-balanced"),
            PartitionStrategy::kDegreeBalanced);
  EXPECT_THROW(dist::partition_strategy_from_string("bogus"), check_error);
}

TEST(Partition, RejectsZeroShards) {
  const Graph g = make_clique(4);
  EXPECT_THROW(
      dist::partition_graph(g, config(0, PartitionStrategy::kContiguous)),
      check_error);
}

}  // namespace
}  // namespace stm
