// Tests for incremental (delta) pattern matching and its service wiring:
// randomized differential against full re-enumeration, plan caching across
// graph versions, and standing queries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/reference.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

/// A random valid batch against the current version: random pairs become
/// deletions when present, insertions when absent (so insertions and
/// deletions can never overlap).
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

/// Applies `num_batches` random batches, tracking the count incrementally,
/// and checks the cumulative count against full re-enumeration of the
/// compacted graph after every batch. Returns the number of batches checked.
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

// ---------------------------------------------------------------------------
// Randomized differential: cumulative deltas == full re-enumeration
// ---------------------------------------------------------------------------

// Short sweeps keep the default `ctest` run fast; the full 216-batch sweep
// lives in test_incremental_sweep.cpp (DeepSweep, STMATCH_SLOW=1 gated).

TEST(IncrementalDifferential, HostEngineMatchesFullReenumeration) {
  int total = 0;
  for (const char* p : kPatterns)
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}})
      total += run_differential(Pattern::parse(p), seed,
                                /*num_batches=*/6, /*batch_edges=*/6);
  EXPECT_EQ(total, 3 * 2 * 6);  // 36 batches checked
}

TEST(IncrementalDifferential, UniqueSubgraphCounts) {
  // Triangle: |Aut| = 6; delta in subgraph units must track the reference.
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");
  Graph base = make_erdos_renyi(32, 0.18, 17);
  MutableGraph g(base);

  PlanOptions plan;
  plan.count_mode = CountMode::kUniqueSubgraphs;
  IncrementalMatcher matcher(triangle, plan);
  EXPECT_EQ(matcher.automorphisms(), 6u);

  ReferenceOptions ref;
  ref.count_mode = CountMode::kUniqueSubgraphs;
  Rng rng(5);
  std::int64_t count = static_cast<std::int64_t>(
      reference_count(g.snapshot()->view(), triangle, ref));
  for (int i = 0; i < 10; ++i) {
    auto from = g.snapshot();
    ApplyResult applied = g.apply(random_batch(*from, rng, 5));
    count += matcher.count_delta(from, applied.applied).delta;
    EXPECT_EQ(count, static_cast<std::int64_t>(reference_count(
                         applied.snapshot->view(), triangle, ref)));
  }
}

TEST(IncrementalDifferential, EmptyDeltaIsZero) {
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");
  IncrementalMatcher matcher(triangle);
  MutableGraph g(make_clique(5));
  DeltaMatchResult d = matcher.count_delta(g.snapshot(), DeltaEdges{});
  EXPECT_EQ(d.delta, 0);
  EXPECT_EQ(d.anchored_runs, 0u);
}

TEST(IncrementalMatcher, RejectsVertexInducedSemantics) {
  PlanOptions plan;
  plan.induced = Induced::kVertex;
  EXPECT_THROW(IncrementalMatcher(Pattern::parse("0-1,1-2"), plan),
               check_error);
}

TEST(IncrementalMatcher, KnownTriangleDeltas) {
  // Path 0-1-2: closing the triangle adds exactly 6 embeddings (1 subgraph).
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  MutableGraph g(b.build());
  IncrementalMatcher matcher(Pattern::parse("0-1,1-2,2-0"));

  auto from = g.snapshot();
  UpdateBatch close_it;
  close_it.insertions = {{0, 2}};
  ApplyResult applied = g.apply(close_it);
  EXPECT_EQ(matcher.count_delta(from, applied.applied).delta, 6);

  // And deleting any triangle edge removes them again.
  from = g.snapshot();
  UpdateBatch open_it;
  open_it.deletions = {{0, 1}};
  applied = g.apply(open_it);
  EXPECT_EQ(matcher.count_delta(from, applied.applied).delta, -6);
}

// ---------------------------------------------------------------------------
// Plan cache across graph versions
// ---------------------------------------------------------------------------

TEST(IncrementalPlanCache, EpochForcesRecompile) {
  // A plan reads no graph, so a batch leaves the cached plan valid: it is
  // served again after the epoch bump and still counts exactly.
  MutableGraph g(make_erdos_renyi(30, 0.2, 4));
  PlanCache cache(8);
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");
  bool hit = true;
  const auto before = cache.get_or_compile(triangle, {}, &hit);
  EXPECT_FALSE(hit);

  UpdateBatch batch;
  batch.insertions = {{0, 1}, {0, 2}, {1, 2}};
  ASSERT_GE(g.apply(batch).snapshot->epoch(), 1u);

  const auto after = cache.get_or_compile(triangle, {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(after, before);
  const auto snap = g.snapshot();
  EXPECT_EQ(run_engine(EngineKind::kHost, snap->view(), *after, {}, {}).count,
            reference_count(snap->view(), triangle, {}));
}

TEST(IncrementalPlanCache, SessionRecompilesAfterUpdate) {
  GraphSession session(make_erdos_renyi(30, 0.2, 4));
  QueryRequest req;
  req.pattern = Pattern::parse("0-1,1-2,2-0");
  req.deadline_ms = -1.0;

  QueryResult r1 = session.run(req);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.plan_cache_hit);
  EXPECT_EQ(r1.graph_epoch, 0u);

  QueryResult r2 = session.run(req);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.plan_cache_hit);

  // Mutate, re-query: the plan cached before the batch serves the new
  // epoch, and the count is exact.
  UpdateBatch batch;
  batch.insertions = {{0, 1}, {0, 2}, {1, 2}};
  batch.deletions = {};
  UpdateOutcome out = session.apply_updates(batch);
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out.epoch, 1u);

  QueryResult r3 = session.run(req);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.plan_cache_hit);
  EXPECT_EQ(r3.graph_epoch, out.epoch);
  EXPECT_EQ(r3.count, reference_count(session.snapshot()->view(), req.pattern,
                                      {}));
}

// ---------------------------------------------------------------------------
// Service update path and standing queries
// ---------------------------------------------------------------------------

TEST(StandingQuery, DeliversExactDeltasPerBatch) {
  GraphSession session(make_erdos_renyi(34, 0.15, 9));
  StandingQueryConfig cfg;
  cfg.pattern = Pattern::parse("0-1,1-2,2-0");
  std::atomic<int> callbacks{0};
  cfg.on_update = [&](const StandingQueryUpdate&) { callbacks.fetch_add(1); };
  const std::uint64_t id = session.register_standing_query(cfg);

  auto info = session.standing_query(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->count, reference_count(session.snapshot()->view(),
                                         cfg.pattern, {}));
  EXPECT_EQ(info->epoch, 0u);

  Rng rng(21);
  int applied_batches = 0;
  for (int i = 0; i < 6; ++i) {
    UpdateBatch batch = random_batch(*session.snapshot(), rng, 5);
    UpdateOutcome out = session.apply_updates(batch);
    ASSERT_TRUE(out.ok());
    if (out.applied.empty()) continue;
    ++applied_batches;
    ASSERT_EQ(out.updates.size(), 1u);
    EXPECT_EQ(out.updates[0].query_id, id);
    EXPECT_EQ(out.updates[0].epoch, out.epoch);
    // The standing count tracks the truth after every batch.
    EXPECT_EQ(out.updates[0].count,
              reference_count(session.snapshot()->view(), cfg.pattern, {}));
  }
  ASSERT_GT(applied_batches, 0);
  EXPECT_EQ(callbacks.load(), applied_batches);

  info = session.standing_query(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->batches_observed,
            static_cast<std::uint64_t>(applied_batches));
  EXPECT_EQ(info->count, reference_count(session.snapshot()->compacted(),
                                         cfg.pattern, {}));

  EXPECT_TRUE(session.unregister_standing_query(id));
  EXPECT_FALSE(session.unregister_standing_query(id));
  EXPECT_FALSE(session.standing_query(id).has_value());
}

TEST(StandingQuery, MetricsTrackUpdates) {
  GraphSession session(make_erdos_renyi(20, 0.2, 2));
  UpdateBatch batch;
  batch.insertions = {{0, 1}};
  batch.deletions = {};
  // Force a definite state: ensure 0-1 absent first.
  if (session.snapshot()->has_edge(0, 1)) {
    UpdateBatch del;
    del.deletions = {{0, 1}};
    ASSERT_TRUE(session.apply_updates(del).ok());
  }
  const std::uint64_t before =
      session.metrics().counter("updates_applied").value();
  UpdateOutcome out = session.apply_updates(batch);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.stats.inserted, 1u);
  EXPECT_EQ(session.metrics().counter("updates_applied").value(), before + 1);
  EXPECT_GE(session.metrics().counter("edges_inserted").value(), 1u);
  EXPECT_EQ(session.metrics().gauge("graph_epoch").value(),
            static_cast<double>(out.epoch));
}

TEST(StandingQuery, InvalidBatchReportsInvalidArgument) {
  GraphSession session(make_erdos_renyi(20, 0.2, 2));
  const std::uint64_t epoch = session.epoch();
  UpdateBatch bad;
  bad.insertions = {{3, 3}};  // self-loop
  UpdateOutcome out = session.apply_updates(bad);
  EXPECT_EQ(out.status, QueryStatus::kInvalidArgument);
  EXPECT_FALSE(out.error.empty());
  EXPECT_EQ(session.epoch(), epoch);  // graph untouched
}

TEST(StandingQuery, InjectedUpdateFaultLeavesGraphUntouched) {
  SessionConfig cfg;
  cfg.fault.seed = 11;
  cfg.fault.set_rate(FaultSite::kUpdateApply, 1.0);
  GraphSession session(make_erdos_renyi(20, 0.2, 2), cfg);
  const std::uint64_t epoch = session.epoch();
  const std::uint64_t before =
      session.metrics().counter("updates_failed").value();

  UpdateBatch batch;
  batch.insertions = {{0, 2}, {0, 3}};
  UpdateOutcome out = session.apply_updates(batch);
  EXPECT_EQ(out.status, QueryStatus::kInternalError);
  EXPECT_EQ(session.epoch(), epoch);
  EXPECT_EQ(session.metrics().counter("updates_failed").value(), before + 1);
}

TEST(StandingQuery, RejectsVertexInducedRegistration) {
  GraphSession session(make_erdos_renyi(20, 0.2, 2));
  StandingQueryConfig cfg;
  cfg.pattern = Pattern::parse("0-1,1-2");
  cfg.plan.induced = Induced::kVertex;
  EXPECT_THROW(session.register_standing_query(cfg), check_error);
}

}  // namespace
}  // namespace stm
