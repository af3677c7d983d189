// Micro-benchmarks of the dynamic graph subsystem: batch application cost,
// and incremental (delta) matching vs. full re-enumeration for small batches
// — the acceptance target is speedup_vs_full >= 5 for batches of <= 1% of
// the edges.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/recursive.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/pattern.hpp"
#include "util/timer.hpp"

namespace {

using namespace stm;
using bench::random_batch;

const Graph& dynamic_base() {
  // Power-law proxy of the paper's SNAP datasets: skewed degrees make full
  // re-enumeration expensive while a small batch touches few hot vertices.
  static const Graph g = make_barabasi_albert(4000, 8, 77);
  return g;
}

void BM_ApplyBatch(benchmark::State& state) {
  const int batch_edges = static_cast<int>(state.range(0));
  MutableGraph g(dynamic_base());
  Rng rng(1);
  for (auto _ : state) {
    ApplyResult r = g.apply(random_batch(*g.snapshot(), rng, batch_edges));
    benchmark::DoNotOptimize(r.snapshot);
  }
  state.counters["epoch"] = static_cast<double>(g.epoch());
}
BENCHMARK(BM_ApplyBatch)->Arg(10)->Arg(100)->Arg(1000);

void BM_Compact(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    MutableGraph g(dynamic_base());
    Rng rng(2);
    for (int i = 0; i < 8; ++i)
      g.apply(random_batch(*g.snapshot(), rng, 64));
    state.ResumeTiming();
    auto snap = g.compact();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_Compact);

/// Delta matching vs. full re-enumeration on the same snapshot. The counter
/// `speedup_vs_full` is the acceptance metric: for batches of <= 1% of the
/// edges (Arg <= ~320 on this base graph) it must exceed 5.
void BM_DeltaVsFull(benchmark::State& state) {
  const int batch_edges = static_cast<int>(state.range(0));
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");
  IncrementalMatcher matcher(triangle);
  MatchingPlan full_plan(reorder_for_matching(triangle), {});

  MutableGraph g(dynamic_base());
  Rng rng(3);
  double delta_ms_sum = 0.0;
  double full_ms_sum = 0.0;
  std::int64_t last_delta = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto from = g.snapshot();
    ApplyResult applied = g.apply(random_batch(*from, rng, batch_edges));
    state.ResumeTiming();

    Timer delta_timer;
    DeltaMatchResult d = matcher.count_delta(from, applied.applied);
    delta_ms_sum += delta_timer.elapsed_ms();
    last_delta = d.delta;
    benchmark::DoNotOptimize(d.delta);

    // The alternative a maintained count replaces: re-enumerate the new
    // version from scratch. Timed inside the iteration so both sides see
    // identical graph state, but reported separately via counters.
    Timer full_timer;
    const GraphView view = applied.snapshot->view();
    auto count = recursive_count_range(view, full_plan, 0,
                                       view.num_vertices());
    full_ms_sum += full_timer.elapsed_ms();
    benchmark::DoNotOptimize(count);
  }
  state.counters["delta_ms"] =
      delta_ms_sum / static_cast<double>(state.iterations());
  state.counters["full_ms"] =
      full_ms_sum / static_cast<double>(state.iterations());
  state.counters["speedup_vs_full"] =
      delta_ms_sum > 0.0 ? full_ms_sum / delta_ms_sum : 0.0;
  state.counters["last_delta"] = static_cast<double>(last_delta);
  state.counters["batch_pct_of_edges"] =
      100.0 * static_cast<double>(batch_edges) /
      static_cast<double>(dynamic_base().num_edges());
}
BENCHMARK(BM_DeltaVsFull)->Arg(8)->Arg(32)->Arg(128)->Arg(320);

}  // namespace
