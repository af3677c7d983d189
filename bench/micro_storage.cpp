// Micro-benchmarks of the storage subsystem (google-benchmark).
//
// Real wall-clock measurements of encode cost, decode-on-read throughput,
// and host-engine query latency over every backend, plus the footprint
// sweep EXPERIMENTS.md records: on a power-law dataset proxy at scale >= 10
// the spill tier must keep >= 4x less resident than the raw CSR while the
// engines still return bit-identical counts (the differential harness
// checks the counts; this binary measures the footprint and the price).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "core/host_engine.hpp"
#include "graph/datasets.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/pattern.hpp"
#include "pattern/plan.hpp"
#include "storage/store.hpp"

namespace {

using namespace stm;

// The proxy the footprint acceptance is measured on: orkut is the densest
// Barabási–Albert proxy (mean degree ~12 plus planted cliques), the regime
// where delta/varint lists win and the spill index amortizes best.
const char* kProxy = "orkut";

storage::StoragePolicy policy_for(storage::Backend b, std::uint64_t raw_bytes) {
  storage::StoragePolicy p;
  p.backend = b;
  if (b == storage::Backend::kSpill) {
    // A budget far below the raw graph: the out-of-core operating point.
    p.memory_budget_bytes = std::max<std::uint64_t>(4096, raw_bytes / 64);
    p.page_size = 1 << 14;
  }
  return p;
}

const Graph& proxy_graph(double scale) {
  static const Graph small = make_dataset(kProxy, 1.0);
  static const Graph large = make_dataset(kProxy, 10.0);
  return scale < 10.0 ? small : large;
}

void BM_StoreBuild(benchmark::State& state, storage::Backend backend) {
  const Graph& g = proxy_graph(1.0);
  for (auto _ : state) {
    auto store = storage::GraphStore::build(Graph(g),
                                            policy_for(backend, g.memory_bytes()));
    benchmark::DoNotOptimize(store->stats().encoded_bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_adjacency_entries()));
}
BENCHMARK_CAPTURE(BM_StoreBuild, compressed, storage::Backend::kCompressed)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StoreBuild, spill, storage::Backend::kSpill)
    ->Unit(benchmark::kMillisecond);

// Full adjacency scan with the decode cache trimmed every iteration: the
// cold decode path (varint walk, and for spill the page faults too).
void BM_DecodeScan(benchmark::State& state, storage::Backend backend) {
  const Graph& g = proxy_graph(1.0);
  const auto store =
      storage::GraphStore::build(Graph(g), policy_for(backend, g.memory_bytes()));
  std::uint64_t sum = 0;
  for (auto _ : state) {
    {
      const auto lease = store->lease();
      const GraphView view = store->view();
      for (VertexId v = 0; v < view.num_vertices(); ++v)
        for (VertexId u : view.neighbors(v)) sum += u;
    }
    store->trim_decoded();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_adjacency_entries()));
  const storage::StorageStats st = store->stats();
  state.counters["page_faults"] = static_cast<double>(st.page_faults);
  state.counters["decode_ops"] = static_cast<double>(st.decode_ops);
}
BENCHMARK_CAPTURE(BM_DecodeScan, uncompressed, storage::Backend::kUncompressed)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DecodeScan, compressed, storage::Backend::kCompressed)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DecodeScan, spill, storage::Backend::kSpill)
    ->Unit(benchmark::kMillisecond);

// Host-engine triangle count through the store's view: what a query pays
// for decode-on-intersect once the per-run cache warms up (the cache
// persists across iterations here, as it does across one engine run).
void BM_TriangleHost(benchmark::State& state, storage::Backend backend) {
  const Graph& g = proxy_graph(1.0);
  const auto store =
      storage::GraphStore::build(Graph(g), policy_for(backend, g.memory_bytes()));
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  const MatchingPlan plan(reorder_for_matching(triangle), {});
  HostEngineConfig cfg;
  cfg.num_threads = 1;
  const auto lease = store->lease();
  std::uint64_t count = 0;
  for (auto _ : state) {
    count = host_match(store->view(), plan, cfg).count;
    benchmark::DoNotOptimize(count);
  }
  state.counters["triangles"] = static_cast<double>(count);
}
BENCHMARK_CAPTURE(BM_TriangleHost, uncompressed,
                  storage::Backend::kUncompressed)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TriangleHost, compressed, storage::Backend::kCompressed)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TriangleHost, spill, storage::Backend::kSpill)
    ->Unit(benchmark::kMillisecond);

// Footprint sweep: encode the proxy at the given scale and report what each
// backend keeps resident. footprint_reduction = raw CSR bytes / resident
// bytes; the EXPERIMENTS.md acceptance reads the spill row at scale 10.
void BM_Footprint(benchmark::State& state, storage::Backend backend) {
  const double scale = static_cast<double>(state.range(0));
  const Graph& g = proxy_graph(scale);
  storage::StorageStats st;
  for (auto _ : state) {
    const auto store = storage::GraphStore::build(
        Graph(g), policy_for(backend, g.memory_bytes()));
    st = store->stats();
    benchmark::DoNotOptimize(st.resident_bytes);
  }
  state.counters["raw_bytes"] = static_cast<double>(st.raw_bytes);
  state.counters["resident_bytes"] = static_cast<double>(st.resident_bytes);
  state.counters["encoded_bytes"] = static_cast<double>(st.encoded_bytes);
  state.counters["compression_ratio"] = st.compression_ratio;
  state.counters["footprint_reduction"] =
      st.resident_bytes > 0 ? static_cast<double>(st.raw_bytes) /
                                  static_cast<double>(st.resident_bytes)
                            : 0.0;
}
BENCHMARK_CAPTURE(BM_Footprint, compressed, storage::Backend::kCompressed)
    ->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Footprint, spill, storage::Backend::kSpill)
    ->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace
