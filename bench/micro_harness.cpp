// Micro-benchmarks of the conformance harness: case generation throughput,
// differential oracle cost (the per-trial price of a fuzz run, dominated by
// the brute-force reference), the metamorphic relation suite, and .repro
// serialization. These bound how many trials a nightly fuzz budget buys.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "testing/metamorphic.hpp"
#include "testing/oracle.hpp"
#include "testing/repro.hpp"
#include "testing/seed.hpp"
#include "testing/workload.hpp"

namespace {

using namespace stm;
using namespace stm::harness;

void BM_RandomCase(benchmark::State& state) {
  std::uint64_t stream = 0;
  for (auto _ : state) {
    const TestCase c = random_case(derive_seed(42, stream++));
    benchmark::DoNotOptimize(c.graph.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomCase);

void BM_OracleTrial(benchmark::State& state) {
  // Full differential trial (reference + the recursive, host, simt,
  // incremental, sharded, stream, storage and mqo lanes, under the case's
  // ISA pin) on a case stream capped at the given graph size.
  WorkloadOptions opts;
  opts.max_vertices = static_cast<VertexId>(state.range(0));
  std::uint64_t stream = 0;
  std::uint64_t agreed = 0;
  for (auto _ : state) {
    const TestCase c = random_case(derive_seed(7, stream++), opts);
    agreed += run_oracle(c).agreed ? 1 : 0;
  }
  if (agreed != static_cast<std::uint64_t>(state.iterations()))
    state.SkipWithError("oracle disagreed");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OracleTrial)->Arg(24)->Arg(48)->Arg(64);

void BM_MetamorphicSuite(benchmark::State& state) {
  WorkloadOptions opts;
  opts.max_vertices = 32;
  std::uint64_t stream = 0;
  for (auto _ : state) {
    const std::uint64_t seed = derive_seed(3, stream++);
    const TestCase c = random_case(seed, opts);
    benchmark::DoNotOptimize(check_metamorphic(c, seed).checked);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetamorphicSuite);

void BM_ReproRoundTrip(benchmark::State& state) {
  const TestCase c = random_case(11);
  for (auto _ : state) {
    const TestCase back = from_repro(to_repro(c));
    benchmark::DoNotOptimize(back.graph.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReproRoundTrip);

}  // namespace
