// Micro-benchmarks of the matching engines themselves (google-benchmark,
// real wall-clock): recursive executor, host-parallel engine, and the SIMT
// simulator overhead, on small dataset proxies; plus one GraphSession count
// per e2e_bench query_mix pattern and the unique-subgraph walk beneath it.
#include <benchmark/benchmark.h>

#include "core/engine.hpp"
#include "core/host_engine.hpp"
#include "core/recursive.hpp"
#include "graph/datasets.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"
#include "service/service.hpp"

namespace {

using namespace stm;

const Graph& wiki_tiny() {
  static const Graph g = make_dataset("wiki_vote", 0.15);
  return g;
}

void BM_RecursiveExecutor(benchmark::State& state) {
  const Graph& g = wiki_tiny();
  const int q = static_cast<int>(state.range(0));
  MatchingPlan plan(reorder_for_matching(query(q)), {});
  std::uint64_t count = 0;
  for (auto _ : state) {
    count = recursive_count_range(g, plan, 0, g.num_vertices());
    benchmark::DoNotOptimize(count);
  }
  state.counters["matches"] = static_cast<double>(count);
}
BENCHMARK(BM_RecursiveExecutor)->Arg(3)->Arg(8)->Arg(10);

void BM_RecursiveNoCodeMotion(benchmark::State& state) {
  const Graph& g = wiki_tiny();
  PlanOptions popts;
  popts.code_motion = false;
  MatchingPlan plan(reorder_for_matching(query(static_cast<int>(state.range(0)))),
                    popts);
  for (auto _ : state) {
    auto count = recursive_count_range(g, plan, 0, g.num_vertices());
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_RecursiveNoCodeMotion)->Arg(8)->Arg(10);

void BM_HostEngine(benchmark::State& state) {
  const Graph& g = wiki_tiny();
  MatchingPlan plan(reorder_for_matching(query(10)), {});
  HostEngineConfig cfg;
  cfg.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto r = host_match(g, plan, cfg);
    benchmark::DoNotOptimize(r.count);
  }
}
BENCHMARK(BM_HostEngine)->Arg(1)->Arg(2)->Arg(4);

void BM_SimulatedEngine(benchmark::State& state) {
  // Wall cost of simulating one query end to end (scheduler + counters).
  const Graph& g = wiki_tiny();
  MatchingPlan plan(reorder_for_matching(query(10)), {});
  EngineConfig cfg;
  cfg.device.num_blocks = static_cast<std::uint32_t>(state.range(0));
  cfg.device.warps_per_block = 8;
  cfg.stop_level = 4;
  cfg.detect_level = 2;
  for (auto _ : state) {
    auto r = stmatch_match(g, plan, cfg);
    benchmark::DoNotOptimize(r.count);
  }
}
BENCHMARK(BM_SimulatedEngine)->Arg(4)->Arg(16)->Arg(82);

void BM_PlanCompilation(benchmark::State& state) {
  Pattern p = query(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    MatchingPlan plan(reorder_for_matching(p), {});
    benchmark::DoNotOptimize(plan.num_nodes());
  }
}
BENCHMARK(BM_PlanCompilation)->Arg(8)->Arg(16)->Arg(24);

const Graph& mico() {
  static const Graph g = make_dataset("mico");
  return g;
}

/// One client's embeddings-mode count through a GraphSession, plan cached:
/// the per-query work of e2e_bench's query_mix, without its second client.
void BM_SessionCount(benchmark::State& state) {
  static GraphSession session{Graph(mico())};
  QueryRequest req;
  req.pattern = query(static_cast<int>(state.range(0)));
  req.deadline_ms = -1.0;
  std::uint64_t count = session.run(req).count;  // compiles the plan
  for (auto _ : state) {
    count = session.run(req).count;
    benchmark::DoNotOptimize(count);
  }
  state.counters["matches"] = static_cast<double>(count);
}
BENCHMARK(BM_SessionCount)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int q : {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 21, 22,
                    23, 24})
        b->Arg(q);
    })
    ->UseRealTime()  // the dispatcher thread does the work, not this one
    ->Unit(benchmark::kMillisecond);

/// The sequential walk of a unique-subgraph plan (one subgraph per
/// automorphism class) on the query_mix graph.
void BM_UniqueWalk(benchmark::State& state) {
  const Graph& g = mico();
  PlanOptions opts;
  opts.count_mode = CountMode::kUniqueSubgraphs;
  MatchingPlan plan(reorder_for_matching(query(static_cast<int>(state.range(0)))),
                    opts);
  std::uint64_t count = 0;
  for (auto _ : state) {
    count = recursive_count_range(g, plan, 0, g.num_vertices());
    benchmark::DoNotOptimize(count);
  }
  state.counters["matches"] = static_cast<double>(count);
}
BENCHMARK(BM_UniqueWalk)->Arg(1)->Arg(3)->Arg(11)->Arg(21)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
