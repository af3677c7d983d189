// Micro-benchmarks of the sharded execution subsystem: single-shard vs
// 2/4/8-shard wall time of the cross-shard coordinator on ER and power-law
// graphs, with the partition's imbalance and cut fraction reported as
// counters, plus 4- and 5-cycle rows at 4 shards, where the cut-edge term's
// walks dominate, and a size sweep of the 4-shard ER triangle count on one
// worker, which shows how the cut term grows with the number of cut edges.
// The acceptance target (EXPERIMENTS.md) is a measurable speedup over the
// single-shard host run on >= 4 shards for at least one power-law workload
// — on multi-core hosts; a 1-core container only shows the coordination
// overhead, which these benchmarks then bound.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "dist/partition.hpp"
#include "dist/sharded.hpp"
#include "graph/generators.hpp"
#include "pattern/pattern.hpp"

namespace {

using namespace stm;

const Graph& er_graph() {
  static const Graph g = make_erdos_renyi(2000, 8.0 / 1999.0, 101);
  return g;
}

const Graph& power_law_graph() {
  // Barabási–Albert skew: hub shards make load balancing matter.
  static const Graph g = make_barabasi_albert(2000, 4, 202);
  return g;
}

Pattern cycle(int k) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < k; ++i) edges.emplace_back(i, (i + 1) % k);
  return Pattern(static_cast<std::size_t>(k), edges);
}

/// `num_workers` scheduler workers (0 = one per shard).
void run_sharded(benchmark::State& state, const Graph& g,
                 dist::PartitionStrategy strategy, const Pattern& pattern,
                 std::uint32_t num_shards, std::uint32_t num_workers = 0) {
  dist::PartitionConfig pcfg;
  pcfg.num_shards = num_shards;
  pcfg.strategy = strategy;
  dist::ShardedOptions opts;
  opts.engine = EngineKind::kHost;
  opts.num_workers = num_workers;

  std::uint64_t count = 0;
  double imbalance = 1.0;
  double cut_fraction = 0.0;
  for (auto _ : state) {
    const dist::ShardedResult r = dist::sharded_match(g, pattern, pcfg, opts);
    benchmark::DoNotOptimize(r.count);
    count = r.count;
    imbalance = r.vertex_imbalance;
    cut_fraction = r.cut_fraction;
  }
  state.counters["count"] = static_cast<double>(count);
  state.counters["vertex_imbalance"] = imbalance;
  state.counters["cut_fraction"] = cut_fraction;
}

/// Triangles at state.range(0) shards.
void run_triangles(benchmark::State& state, const Graph& g,
                   dist::PartitionStrategy strategy) {
  run_sharded(state, g, strategy, cycle(3),
              static_cast<std::uint32_t>(state.range(0)));
}

void BM_ShardedTriangles_ER_Contiguous(benchmark::State& state) {
  run_triangles(state, er_graph(), dist::PartitionStrategy::kContiguous);
}
BENCHMARK(BM_ShardedTriangles_ER_Contiguous)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ShardedTriangles_PowerLaw_Contiguous(benchmark::State& state) {
  run_triangles(state, power_law_graph(), dist::PartitionStrategy::kContiguous);
}
BENCHMARK(BM_ShardedTriangles_PowerLaw_Contiguous)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ShardedTriangles_PowerLaw_DegreeBalanced(benchmark::State& state) {
  run_triangles(state, power_law_graph(),
                dist::PartitionStrategy::kDegreeBalanced);
}
BENCHMARK(BM_ShardedTriangles_PowerLaw_DegreeBalanced)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// A state.range(0)-cycle at 4 shards.
void BM_ShardedCycle_PowerLaw_DegreeBalanced(benchmark::State& state) {
  run_sharded(state, power_law_graph(),
              dist::PartitionStrategy::kDegreeBalanced,
              cycle(static_cast<int>(state.range(0))), 4);
}
BENCHMARK(BM_ShardedCycle_PowerLaw_DegreeBalanced)
    ->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

/// Triangles on ER(n, 8/(n-1)) at 4 contiguous shards and one worker, with
/// n = state.range(0): most edges are cut, so the cut-edge term dominates.
void BM_ShardedTriangles_ER_SizeSweep(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph g = make_erdos_renyi(n, 8.0 / (n - 1), 1);
  run_sharded(state, g, dist::PartitionStrategy::kContiguous, cycle(3), 4, 1);
}
BENCHMARK(BM_ShardedTriangles_ER_SizeSweep)
    ->Arg(2000)->Arg(5000)->Arg(10000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_PartitionBuild_PowerLaw(benchmark::State& state) {
  const auto num_shards = static_cast<std::uint32_t>(state.range(0));
  dist::PartitionConfig pcfg;
  pcfg.num_shards = num_shards;
  pcfg.strategy = dist::PartitionStrategy::kDegreeBalanced;
  for (auto _ : state) {
    const dist::Partition p = dist::partition_graph(power_law_graph(), pcfg);
    benchmark::DoNotOptimize(p.shards.size());
  }
}
BENCHMARK(BM_PartitionBuild_PowerLaw)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
