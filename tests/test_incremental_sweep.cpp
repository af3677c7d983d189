// Deep incremental-matching sweep: the full 144-batch differential run that
// used to dominate the default ctest wall clock. Lives in the `slow` CTest
// tier (see tests/CMakeLists.txt) and self-skips unless STMATCH_SLOW=1 is
// set, so `ctest -L slow` plus the environment variable runs it and a plain
// `ctest -j` finishes fast. test_incremental.cpp keeps a short version of
// the same sweep for everyday coverage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "baselines/reference.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

bool slow_tests_enabled() {
  const char* flag = std::getenv("STMATCH_SLOW");
  return flag != nullptr && flag[0] == '1';
}

#define STMATCH_REQUIRE_SLOW()                                       \
  if (!slow_tests_enabled())                                         \
  GTEST_SKIP() << "set STMATCH_SLOW=1 to run the deep sweeps"

UpdateBatch random_batch(const GraphSnapshot& snap, Rng& rng, int num_edges) {
  const VertexId n = snap.num_vertices();
  UpdateBatch batch;
  for (int i = 0; i < num_edges; ++i) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto v = static_cast<VertexId>(rng() % n);
    if (u == v) continue;
    if (snap.has_edge(u, v)) {
      batch.deletions.emplace_back(u, v);
    } else {
      batch.insertions.emplace_back(u, v);
    }
  }
  return batch;
}

/// Same contract as test_incremental.cpp's run_differential: apply random
/// batches, track the count through deltas, check against full
/// re-enumeration after every batch.
int run_differential(const Pattern& pattern, std::uint64_t seed,
                     int num_batches, int batch_edges) {
  Graph base = make_erdos_renyi(36, 0.15, seed);
  MutableGraph g(base);

  IncrementalMatcher matcher(pattern);
  const ReferenceOptions ref;

  Rng rng(seed * 7919 + 13);
  std::int64_t count = static_cast<std::int64_t>(
      reference_count(g.snapshot()->view(), pattern, ref));
  int checked = 0;
  for (int i = 0; i < num_batches; ++i) {
    auto from = g.snapshot();
    UpdateBatch batch = random_batch(*from, rng, batch_edges);
    ApplyResult applied = g.apply(batch);
    DeltaMatchResult d = matcher.count_delta(from, applied.applied);
    count += d.delta;
    const std::uint64_t full =
        reference_count(GraphView(applied.snapshot->compacted()), pattern, ref);
    EXPECT_EQ(count, static_cast<std::int64_t>(full))
        << "seed=" << seed << " batch=" << i;
    if (count != static_cast<std::int64_t>(full)) return checked;
    ++checked;
  }
  return checked;
}

const char* const kPatterns[] = {
    "0-1,1-2,2-0",                          // triangle
    "0-1,0-2,0-3,1-2,1-3,2-3",              // 4-clique
    "0-1,1-2,2-3,3-0,0-4,1-4",              // house
};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

TEST(DeepSweep, DeltaCpuEngineFullReenumeration) {
  STMATCH_REQUIRE_SLOW();
  int total = 0;
  for (const char* p : kPatterns)
    for (std::uint64_t seed : kSeeds)
      total += run_differential(Pattern::parse(p), seed,
                                /*num_batches=*/16, /*batch_edges=*/6);
  EXPECT_EQ(total, 3 * 3 * 16);  // 144 batches checked
}

}  // namespace
}  // namespace stm
