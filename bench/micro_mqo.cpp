// Micro-benchmarks of the standing-query index (DESIGN.md §16): batched
// indexed-delta evaluation vs. the per-pattern loop, one registration
// through each, and registration throughput. The acceptance targets are
// sub-linear indexed-delta cost growth from 10k to 100k standing
// registrations in the duplicate-heavy regime (many users registering
// isomorphic alerts: the shared walk's cost is a function of the distinct
// canonical groups, not the registration count), and a single registration
// walking no slower than its own IncrementalMatcher.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "mqo/evaluator.hpp"
#include "mqo/pattern_index.hpp"
#include "pattern/canonical.hpp"
#include "pattern/pattern.hpp"
#include "util/timer.hpp"

namespace {

using namespace stm;
using bench::random_batch;
using bench::standing_shapes;

const Graph& mqo_base() {
  static const Graph g = make_barabasi_albert(2000, 4, 99);
  return g;
}

/// The first `count` connected patterns on 3..6 vertices, distinct up to
/// isomorphism, in a deterministic edge-subset order. The pool the
/// duplicate-heavy registration mixes draw from.
std::vector<Pattern> distinct_patterns(std::size_t count) {
  std::vector<Pattern> out;
  std::set<std::string> seen;
  for (std::size_t n = 3; n <= 6 && out.size() < count; ++n) {
    std::vector<std::pair<int, int>> all;
    for (int u = 0; u < static_cast<int>(n); ++u)
      for (int v = u + 1; v < static_cast<int>(n); ++v) all.emplace_back(u, v);
    const std::uint32_t masks = 1u << all.size();
    for (std::uint32_t m = 0; m < masks && out.size() < count; ++m) {
      std::vector<std::pair<int, int>> edges;
      for (std::size_t i = 0; i < all.size(); ++i)
        if ((m >> i) & 1) edges.push_back(all[i]);
      if (edges.size() + 1 < n) continue;  // can't be connected
      Pattern p(n, edges);
      if (!p.is_connected()) continue;
      if (!seen.insert(canonical_form(p)).second) continue;
      out.push_back(std::move(p));
    }
  }
  return out;
}

/// One shared walk per batch serving every registration. Args: {standing
/// registrations, distinct canonical shapes}. Growing registrations 10x at
/// a fixed shape pool must leave `walk_ms` flat (sub-linear total cost);
/// growing the pool grows the trie — but slower than plan_positions, which
/// is what `shared_prefix_ratio` reports.
void BM_IndexedDelta(benchmark::State& state) {
  const auto num_regs = static_cast<std::size_t>(state.range(0));
  const auto num_shapes = static_cast<std::size_t>(state.range(1));
  const std::vector<Pattern> shapes = distinct_patterns(num_shapes);

  mqo::PatternIndex index;
  for (std::size_t i = 0; i < num_regs; ++i)
    index.add(i + 1, shapes[i % shapes.size()], PlanOptions{},
              /*wants_embeddings=*/false);
  const mqo::MultiQueryEvaluator eval(index);

  MutableGraph g(mqo_base());
  Rng rng(5);
  double walk_ms = 0.0;
  double project_ms = 0.0;
  std::uint64_t node_visits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto from = g.snapshot();
    ApplyResult applied = g.apply(random_batch(*from, rng, 16));
    state.ResumeTiming();

    Timer walk_timer;
    const mqo::EvalResult res =
        eval.evaluate(*from, *applied.snapshot, applied.applied);
    walk_ms += walk_timer.elapsed_ms();
    node_visits += res.node_visits;

    // Fan the group deltas back out to every registration (count-only
    // subscribers): the per-query tail the session pays after the walk.
    Timer project_timer;
    std::int64_t total = 0;
    for (std::size_t i = 0; i < num_regs; ++i)
      total += index.project(i + 1, res).delta;
    project_ms += project_timer.elapsed_ms();
    benchmark::DoNotOptimize(total);
  }
  const auto iters = static_cast<double>(state.iterations());
  const mqo::IndexStats st = index.stats();
  state.counters["walk_ms"] = walk_ms / iters;
  state.counters["project_ms"] = project_ms / iters;
  state.counters["node_visits"] = static_cast<double>(node_visits) / iters;
  state.counters["groups"] = static_cast<double>(st.groups);
  state.counters["trie_nodes"] = static_cast<double>(st.trie.nodes);
  state.counters["shared_prefix_ratio"] = st.trie.shared_prefix_ratio;
}
BENCHMARK(BM_IndexedDelta)
    ->Args({10000, 16})    // duplicate-heavy, 10k standing queries
    ->Args({100000, 16})   // 10x the queries, same shapes: walk_ms flat
    ->Args({100000, 64});  // diverse mix: trie grows, sharing persists

/// What the indexed walk replaces: one IncrementalMatcher per standing
/// query, each seeding its own anchored runs per delta edge. Linear in the
/// registration count by construction — benchmarked at small counts only
/// (10k would take minutes per batch).
void BM_PerPatternDelta(benchmark::State& state) {
  const auto num_regs = static_cast<std::size_t>(state.range(0));
  const std::vector<Pattern> shapes = distinct_patterns(16);
  std::vector<IncrementalMatcher> matchers;
  matchers.reserve(num_regs);
  for (std::size_t i = 0; i < num_regs; ++i)
    matchers.emplace_back(shapes[i % shapes.size()]);

  MutableGraph g(mqo_base());
  Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    auto from = g.snapshot();
    ApplyResult applied = g.apply(random_batch(*from, rng, 16));
    state.ResumeTiming();
    std::int64_t total = 0;
    for (const IncrementalMatcher& m : matchers)
      total += m.count_delta(from, applied.applied).delta;
    benchmark::DoNotOptimize(total);
  }
  state.counters["queries"] = static_cast<double>(num_regs);
}
BENCHMARK(BM_PerPatternDelta)->Arg(8)->Arg(64)->Arg(512);

/// That workload's graph recipe: BA(2000, m=6) with degrees capped at 96.
const Graph& standing_base() {
  static const Graph g = cap_degrees(make_barabasi_albert(2000, 6, 41), 96, 42);
  return g;
}

/// One registration alone: the shared walk over a one-pattern trie vs. the
/// per-pattern IncrementalMatcher, on the same balanced 16+16 churn batches
/// (compacted every 64, the workload's checkpoint cadence). Arg = index
/// into standing_shapes(). Reports the median ms/batch of each side over
/// the fixed iteration count and walk/matcher; the acceptance target is a
/// ratio <= 1 for every shape. The deltas are cross-checked every batch.
void BM_SingleRegistration(benchmark::State& state) {
  const auto& [name, pattern] =
      standing_shapes()[static_cast<std::size_t>(state.range(0))];
  mqo::PatternIndex index;
  index.add(1, pattern, PlanOptions{}, /*wants_embeddings=*/false);
  const mqo::MultiQueryEvaluator eval(index);
  const IncrementalMatcher matcher(pattern);

  MutableGraph g(standing_base());
  Rng rng(8);
  std::vector<double> walk_ms, matcher_ms;
  for (auto _ : state) {
    if (walk_ms.size() % 64 == 63) g.compact();
    auto from = g.snapshot();
    const ApplyResult applied = g.apply(bench::churn_batch(*from, rng, 16));
    std::int64_t walk_delta = 0, matcher_delta = 0;
    const auto run_walk = [&] {
      Timer t;
      walk_delta =
          index
              .project(1, eval.evaluate(*from, *applied.snapshot,
                                        applied.applied))
              .delta;
      walk_ms.push_back(t.elapsed_ms());
    };
    const auto run_matcher = [&] {
      Timer t;
      matcher_delta = matcher.count_delta(from, applied.applied).delta;
      matcher_ms.push_back(t.elapsed_ms());
    };
    // Alternate which side runs first so cache warmth favors neither.
    if (walk_ms.size() % 2 == 0) {
      run_walk();
      run_matcher();
    } else {
      run_matcher();
      run_walk();
    }
    if (walk_delta != matcher_delta) {
      state.SkipWithError("walk and matcher deltas disagree");
      break;
    }
  }
  const double walk = percentile(walk_ms, 50.0);
  const double per_pattern = percentile(matcher_ms, 50.0);
  state.SetLabel(name);
  state.counters["walk_ms"] = walk;
  state.counters["matcher_ms"] = per_pattern;
  state.counters["walk_over_matcher"] =
      per_pattern > 0.0 ? walk / per_pattern : 0.0;
}
BENCHMARK(BM_SingleRegistration)
    ->DenseRange(0, 7)
    ->Iterations(128)
    ->Unit(benchmark::kMillisecond);

/// Registration throughput in the duplicate-heavy regime: after the first
/// member of each group pays for its trie paths, a duplicate registration
/// touches only the map and the refcount.
void BM_Register(benchmark::State& state) {
  const std::vector<Pattern> shapes = distinct_patterns(16);
  mqo::PatternIndex index;
  std::uint64_t id = 0;
  for (auto _ : state) {
    ++id;
    index.add(id, shapes[id % shapes.size()], PlanOptions{}, false);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["trie_nodes"] =
      static_cast<double>(index.stats().trie.nodes);
}
BENCHMARK(BM_Register);

/// Steady-state churn: one registration enters, one leaves. Group slots and
/// trie paths are recycled, so the index must not grow.
void BM_RegisterDeregisterChurn(benchmark::State& state) {
  const std::vector<Pattern> shapes = distinct_patterns(16);
  mqo::PatternIndex index;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    ++id;
    index.add(id, shapes[id % shapes.size()], PlanOptions{}, false);
  }
  std::uint64_t oldest = 1;
  for (auto _ : state) {
    ++id;
    index.add(id, shapes[id % shapes.size()], PlanOptions{}, false);
    index.remove(oldest++);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
  state.counters["registrations"] = static_cast<double>(index.size());
  state.counters["group_slots"] =
      static_cast<double>(index.num_group_slots());
}
BENCHMARK(BM_RegisterDeregisterChurn);

}  // namespace
