// Tests for the cross-shard coordinator and the sharded service mode.
//
// ShardedDifferential.* — bit-exact agreement with the reference enumerator
// across graph families, patterns, shard counts {1,2,4,8}, strategies and
// count modes, through SIMT lanes, labeled graphs, and dynamic-update
// partition refreshes (differential tier).
// ShardChaos.* — exact counts under >= 10% injected kShardFailure and
// under throwing SIMT engine calls, fail-closed on budget exhaustion,
// deterministic fault replay (chaos tier).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/reference.hpp"
#include "dist/partition.hpp"
#include "dist/scheduler.hpp"
#include "dist/sharded.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "storage/store.hpp"
#include "testing/oracle.hpp"
#include "testing/workload.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace stm {
namespace {

using dist::PartitionConfig;
using dist::PartitionStrategy;

PartitionConfig pconfig(std::uint32_t shards, PartitionStrategy strategy) {
  PartitionConfig cfg;
  cfg.num_shards = shards;
  cfg.strategy = strategy;
  return cfg;
}

std::uint64_t reference(const Graph& g, const Pattern& p,
                        const PlanOptions& plan = {}) {
  return reference_count(GraphView(g), p, {plan.induced, plan.count_mode});
}

struct NamedGraph {
  const char* name;
  Graph graph;
};

/// One small representative per harness graph family.
std::vector<NamedGraph> family_graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"erdos-renyi", make_erdos_renyi(36, 0.15, 3)});
  graphs.push_back({"power-law", make_barabasi_albert(36, 3, 5)});
  graphs.push_back({"bipartite", make_complete_bipartite(5, 7)});
  {
    // Star-heavy: one hub plus a sparse rim.
    GraphBuilder b(24);
    for (VertexId v = 1; v < 24; ++v) b.add_edge(0, v);
    for (VertexId v = 1; v + 2 < 24; v += 3) b.add_edge(v, v + 2);
    graphs.push_back({"star-heavy", b.build()});
  }
  graphs.push_back({"corner", make_path(5)});
  return graphs;
}

// ---------------------------------------------------------------------------
// Differential tier
// ---------------------------------------------------------------------------

TEST(ShardedDifferential, ExactAcrossFamiliesShardsStrategiesAndModes) {
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  const Pattern wedge(3, {{0, 1}, {1, 2}});
  for (const NamedGraph& ng : family_graphs()) {
    for (const Pattern* pattern : {&triangle, &wedge}) {
      for (CountMode mode :
           {CountMode::kEmbeddings, CountMode::kUniqueSubgraphs}) {
        PlanOptions plan;
        plan.count_mode = mode;
        const std::uint64_t expected = reference(ng.graph, *pattern, plan);
        for (PartitionStrategy strategy :
             {PartitionStrategy::kContiguous,
              PartitionStrategy::kDegreeBalanced, PartitionStrategy::kHash}) {
          for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
            dist::ShardedOptions opts;
            opts.plan = plan;
            const dist::ShardedResult r = dist::sharded_match(
                ng.graph, *pattern, pconfig(shards, strategy), opts);
            ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
            EXPECT_EQ(r.count, expected)
                << ng.name << " pattern=" << pattern->to_string()
                << " mode=" << static_cast<int>(mode) << " shards=" << shards
                << " strategy=" << dist::to_string(strategy)
                << " (local=" << r.local_total << " cut=" << r.cut_total
                << ")";
          }
        }
      }
    }
  }
}

TEST(ShardedDifferential, SingleEdgeAndSquarePatterns) {
  const Graph g = make_erdos_renyi(30, 0.2, 8);
  const Pattern edge(2, {{0, 1}});
  const Pattern square(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  for (const Pattern* pattern : {&edge, &square}) {
    const std::uint64_t expected = reference(g, *pattern);
    for (std::uint32_t shards : {2u, 4u}) {
      const dist::ShardedResult r = dist::sharded_match(
          g, *pattern, pconfig(shards, PartitionStrategy::kContiguous));
      ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
      EXPECT_EQ(r.count, expected) << pattern->to_string();
    }
  }
}

TEST(ShardedDifferential, SimtLocalEngine) {
  const Graph g = make_barabasi_albert(30, 3, 12);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  const std::uint64_t expected = reference(g, triangle);
  for (std::uint32_t shards : {1u, 4u}) {
    dist::ShardedOptions opts;
    opts.engine = EngineKind::kSimt;
    const dist::ShardedResult r = dist::sharded_match(
        g, triangle, pconfig(shards, PartitionStrategy::kDegreeBalanced),
        opts);
    ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
    EXPECT_EQ(r.count, expected) << "shards=" << shards;
  }
}

TEST(ShardedDifferential, ReferenceLocalEngine) {
  const Graph g = make_erdos_renyi(24, 0.2, 15);
  const Pattern wedge(3, {{0, 1}, {1, 2}});
  const std::uint64_t expected = reference(g, wedge);
  dist::ShardedOptions opts;
  opts.engine = EngineKind::kReference;
  const dist::ShardedResult r = dist::sharded_match(
      g, wedge, pconfig(4, PartitionStrategy::kHash), opts);
  ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(r.count, expected);
}

TEST(ShardedDifferential, CancelledUnitsReportAnError) {
  // With one shard only the shard-local unit sees the token; with four, the
  // cut-edge chunks see it too. Either way the result says why it failed.
  const Graph g = make_erdos_renyi(400, 0.03, 7);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  const dist::ShardedMatcher matcher(triangle, {});
  const MatchingPlan plan(reorder_for_matching(triangle), {});
  for (std::uint32_t shards : {1u, 4u}) {
    const dist::Partition p = dist::partition_graph(
        g, pconfig(shards, PartitionStrategy::kContiguous));
    CancelToken token;
    token.cancel();
    const dist::ShardedResult r =
        matcher.match(g, p, plan, {}, {}, 0, &token);
    EXPECT_EQ(r.status, QueryStatus::kCancelled) << "shards=" << shards;
    EXPECT_NE(r.error.find(to_string(QueryStatus::kCancelled)),
              std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("partial"), std::string::npos) << r.error;
  }
}

TEST(ShardedDifferential, LabeledGraphAndPattern) {
  const Graph g = with_random_labels(make_erdos_renyi(32, 0.2, 6), 2, 40);
  Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  triangle = triangle.with_labels({0, 1, 0});
  const std::uint64_t expected = reference(g, triangle);
  for (std::uint32_t shards : {2u, 4u}) {
    const dist::ShardedResult r = dist::sharded_match(
        g, triangle, pconfig(shards, PartitionStrategy::kContiguous));
    ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
    EXPECT_EQ(r.count, expected) << "shards=" << shards;
  }
}

TEST(ShardedDifferential, ExactAfterDynamicUpdateRefresh) {
  const Graph g = make_erdos_renyi(40, 0.12, 23);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  const dist::Partition before =
      dist::partition_graph(g, pconfig(4, PartitionStrategy::kContiguous));

  MutableGraph dyn(g);
  UpdateBatch batch;
  batch.insertions = {{0, 20}, {1, 21}, {2, 22}, {3, 23}, {10, 30}};
  const ApplyResult applied = dyn.apply(batch);
  ASSERT_TRUE(applied.snapshot != nullptr);

  std::vector<std::uint32_t> touched;
  const dist::Partition after = dist::refresh_partition(
      before, applied.snapshot->view(), applied.applied, &touched);
  EXPECT_FALSE(touched.empty());

  dist::ShardedOptions opts;
  const dist::ShardedMatcher matcher(triangle, opts);
  const MatchingPlan plan(reorder_for_matching(triangle), opts.plan);
  const dist::ShardedResult r =
      matcher.match(applied.snapshot->view(), after, plan, {}, {});
  ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(r.count, reference(applied.snapshot->compacted(), triangle));
}

TEST(ShardedDifferential, VertexInducedRejectedBeyondOneShard) {
  const Graph g = make_erdos_renyi(20, 0.2, 2);
  const Pattern wedge(3, {{0, 1}, {1, 2}});
  PlanOptions plan;
  plan.induced = Induced::kVertex;
  dist::ShardedOptions opts;
  opts.plan = plan;
  EXPECT_THROW(
      dist::sharded_match(g, wedge, pconfig(2, PartitionStrategy::kContiguous),
                          opts),
      check_error);
  // One shard has no cut edges: induced semantics degrade to a plain local
  // run and must agree with the reference.
  const dist::ShardedResult r = dist::sharded_match(
      g, wedge, pconfig(1, PartitionStrategy::kContiguous), opts);
  ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(r.count, reference(g, wedge, plan));
}

TEST(ShardedDifferential, HarnessLaneVotesAndAgrees) {
  bool sharded_voted = false;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const harness::TestCase c = harness::random_case(seed);
    const harness::OracleReport report = harness::run_oracle(c);
    EXPECT_TRUE(report.agreed) << report.describe() << harness::describe(c);
    for (const harness::EngineCount& e : report.counts)
      if (e.engine == harness::EngineKind::kSharded) sharded_voted = true;
  }
  EXPECT_TRUE(sharded_voted) << "no sampled case exercised the sharded lane";
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(ShardScheduler, ExecutesEveryUnitAndCountsSteals) {
  // All units homed on shard 0; workers homed on shards 1..3 can only make
  // progress by stealing.
  dist::ShardScheduler scheduler(4);
  std::atomic<int> executed{0};
  for (int i = 0; i < 12; ++i) {
    scheduler.add({0, static_cast<double>(i + 1), [&executed] {
                     ++executed;
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                   }});
  }
  ThreadPool pool(4);
  const dist::SchedulerStats stats = scheduler.run(pool, 4);
  EXPECT_EQ(executed.load(), 12);
  EXPECT_EQ(stats.executed, 12u);
  ASSERT_EQ(stats.per_shard_executed.size(), 4u);
  EXPECT_EQ(stats.per_shard_executed[0], 12u);
  EXPECT_EQ(stats.steals, stats.per_shard_stolen[0]);
}

TEST(ShardScheduler, SingleWorkerCoversAllShardsWithoutStealing) {
  // One worker's home stride (home + k * num_workers) visits every shard,
  // so nothing counts as a steal.
  dist::ShardScheduler scheduler(3);
  std::atomic<int> executed{0};
  for (std::uint32_t s = 0; s < 3; ++s)
    scheduler.add({s, 1.0, [&executed] { ++executed; }});
  ThreadPool pool(1);
  const dist::SchedulerStats stats = scheduler.run(pool, 1);
  EXPECT_EQ(executed.load(), 3);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(ShardScheduler, RunsCostliestUnitFirst) {
  // One worker drains its queue in LPT order: descending cost, and among
  // equal costs the unit added last first.
  dist::ShardScheduler scheduler(1);
  std::vector<int> order;
  const double costs[] = {1.0, 3.0, 2.0, 3.0};
  for (int i = 0; i < 4; ++i)
    scheduler.add({0, costs[i], [&order, i] { order.push_back(i); }});
  ThreadPool pool(1);
  scheduler.run(pool, 1);
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 0}));
}

// ---------------------------------------------------------------------------
// Sharded service mode
// ---------------------------------------------------------------------------

TEST(ShardedService, CountsMatchUnshardedAcrossEnginesAndUpdates) {
  const Graph g = make_barabasi_albert(50, 3, 33);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});

  // The partition reads the session's snapshot view, which a compressed
  // backend serves through its store.
  for (const storage::Backend backend :
       {storage::Backend::kUncompressed, storage::Backend::kCompressed}) {
    SCOPED_TRACE(storage::to_string(backend));
    GraphSession plain(g, SessionConfig{});

    SessionConfig cfg;
    cfg.sharding.num_shards = 4;
    cfg.sharding.strategy = PartitionStrategy::kDegreeBalanced;
    cfg.storage.backend = backend;
    GraphSession sharded(g, cfg);

    for (EngineKind engine : {EngineKind::kHost, EngineKind::kSimt}) {
      QueryRequest req;
      req.pattern = triangle;
      req.engine = engine;
      req.deadline_ms = -1.0;
      const QueryResult expected = plain.run(req);
      const QueryResult got = sharded.run(req);
      ASSERT_EQ(got.status, QueryStatus::kOk) << got.error;
      EXPECT_EQ(got.count, expected.count) << to_string(engine);
    }
    EXPECT_GE(sharded.metrics().counter("sharded_queries").value(), 2u);

    // Updates refresh the partition; post-update queries stay exact.
    UpdateBatch batch;
    batch.insertions = {{0, 25}, {1, 26}, {2, 27}};
    ASSERT_TRUE(plain.apply_updates(batch).ok());
    ASSERT_TRUE(sharded.apply_updates(batch).ok());
    QueryRequest req;
    req.pattern = triangle;
    req.deadline_ms = -1.0;
    const QueryResult expected = plain.run(req);
    const QueryResult got = sharded.run(req);
    ASSERT_EQ(got.status, QueryStatus::kOk) << got.error;
    EXPECT_EQ(got.count, expected.count);
    EXPECT_EQ(got.graph_epoch, 1u);
  }
}

TEST(ShardedService, ExportsPerShardLabeledMetrics) {
  SessionConfig cfg;
  cfg.sharding.num_shards = 2;
  GraphSession session(make_erdos_renyi(20, 0.2, 9), cfg);
  const std::string prom = session.metrics().to_prometheus();
  EXPECT_NE(prom.find("shard_owned_vertices{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(prom.find("shard_owned_vertices{shard=\"1\"}"), std::string::npos);
  EXPECT_NE(prom.find("shard_imbalance"), std::string::npos);
  EXPECT_NE(prom.find("cut_edge_fraction"), std::string::npos);
  // One HELP/TYPE header per family, not per labeled series.
  std::size_t headers = 0;
  for (std::size_t at = prom.find("# TYPE shard_owned_vertices ");
       at != std::string::npos;
       at = prom.find("# TYPE shard_owned_vertices ", at + 1))
    ++headers;
  EXPECT_EQ(headers, 1u);
  // JSON keys keep the label syntax, with quotes escaped.
  const std::string json = session.metrics().to_json();
  EXPECT_NE(json.find("shard_owned_vertices{shard=\\\"0\\\"}"),
            std::string::npos);
}

TEST(ShardedService, LabeledPatternOnUnlabeledGraphIsInvalidArgument) {
  // The unsharded engines reject this pattern with kInvalidArgument; the
  // coordinator must do the same before it schedules a unit, not let an
  // engine throw inside a pool task.
  const Graph g = make_barabasi_albert(40, 3, 12);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  SessionConfig cfg;
  cfg.sharding.num_shards = 2;
  GraphSession session(g, cfg);
  for (EngineKind engine : {EngineKind::kHost, EngineKind::kSimt}) {
    QueryRequest req;
    req.pattern = triangle.with_labels({0, 1, 0});
    req.engine = engine;
    req.deadline_ms = -1.0;
    const QueryResult r = session.run(req);
    EXPECT_EQ(r.status, QueryStatus::kInvalidArgument) << to_string(engine);
    EXPECT_FALSE(r.error.empty()) << to_string(engine);
  }
  QueryRequest valid;
  valid.pattern = triangle;
  valid.deadline_ms = -1.0;
  const QueryResult ok = session.run(valid);
  ASSERT_EQ(ok.status, QueryStatus::kOk) << ok.error;
  EXPECT_EQ(ok.count, reference(g, triangle));

  EXPECT_THROW(dist::sharded_match(g, triangle.with_labels({0, 1, 0}),
                                   pconfig(2, PartitionStrategy::kContiguous)),
               check_error);
}

TEST(ShardedService, VertexInducedQueriesUseTheUnshardedPath) {
  SessionConfig cfg;
  cfg.sharding.num_shards = 4;
  const Graph g = make_erdos_renyi(24, 0.2, 14);
  GraphSession session(g, cfg);
  QueryRequest req;
  req.pattern = Pattern(3, {{0, 1}, {1, 2}});
  req.plan.induced = Induced::kVertex;
  req.deadline_ms = -1.0;
  const QueryResult r = session.run(req);
  ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(r.count,
            reference_count(GraphView(g), req.pattern,
                            {Induced::kVertex, CountMode::kEmbeddings}));
  EXPECT_EQ(session.metrics().counter("sharded_queries").value(), 0u);
}

TEST(ShardedService, DeadlineStopsAShardedCount) {
  // A 4-shard contiguous split of a sparse random graph cuts most of its
  // edges. Counting 5-cycles on one worker takes several times the deadline,
  // so the units must see the deadline and stop near it.
  const VertexId n = 20000;
  SessionConfig cfg;
  cfg.sharding.num_shards = 4;
  cfg.sharding.num_workers = 1;
  GraphSession session(make_erdos_renyi(n, 8.0 / (n - 1), 1), cfg);
  QueryRequest req;
  req.pattern = Pattern(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  req.engine = EngineKind::kHost;
  req.deadline_ms = 100.0;
  const auto t0 = std::chrono::steady_clock::now();
  const QueryResult r = session.run(req);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_NE(r.status, QueryStatus::kOk);
  EXPECT_FALSE(r.error.empty());
  EXPECT_LT(wall_ms, 2 * req.deadline_ms) << to_string(r.status);
  EXPECT_GE(session.metrics().counter("sharded_queries").value(), 1u);
}

TEST(ShardedService, RequestEngineKnobsReachShardUnits) {
  // A request whose engine always throws degrades to the next engine in the
  // fallback chain, sharded or not: the request's host and simt settings
  // reach the shard-local units.
  const Graph g = make_erdos_renyi(300, 0.05, 7);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  GraphSession plain(g, SessionConfig{});
  SessionConfig cfg;
  cfg.sharding.num_shards = 4;
  GraphSession sharded(g, cfg);
  for (EngineKind engine : {EngineKind::kHost, EngineKind::kSimt}) {
    QueryRequest req;
    req.pattern = triangle;
    req.engine = engine;
    req.deadline_ms = -1.0;
    FaultConfig& fault =
        engine == EngineKind::kHost ? req.host.fault : req.simt.fault;
    fault.set_rate(FaultSite::kEngineThrow, 1.0);
    const QueryResult expected = plain.run(req);
    const QueryResult got = sharded.run(req);
    ASSERT_EQ(expected.status, QueryStatus::kOk) << expected.error;
    EXPECT_TRUE(expected.degraded) << to_string(engine);
    EXPECT_EQ(got.status, expected.status) << got.error;
    EXPECT_EQ(got.served_by, expected.served_by) << to_string(engine);
    EXPECT_EQ(got.degraded, expected.degraded) << to_string(engine);
    EXPECT_EQ(got.count, expected.count) << to_string(engine);
  }
  EXPECT_GE(sharded.metrics().counter("sharded_queries").value(), 1u);
}

// ---------------------------------------------------------------------------
// Chaos tier
// ---------------------------------------------------------------------------

TEST(ShardChaos, InjectedShardFailuresRecoverExactly) {
  const Graph g = make_barabasi_albert(40, 3, 44);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  const std::uint64_t expected = reference(g, triangle);
  dist::ShardedOptions opts;
  opts.fault.seed = 99;
  opts.fault.max_unit_attempts = 6;
  opts.fault.set_rate(FaultSite::kShardFailure, 0.15);  // >= 10% bar
  const dist::ShardedResult r = dist::sharded_match(
      g, triangle, pconfig(4, PartitionStrategy::kContiguous), opts);
  ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(r.count, expected);
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(r.units_recovered, 0u);

  // Same configuration, same fault schedule, same recovery: deterministic.
  const dist::ShardedResult replay = dist::sharded_match(
      g, triangle, pconfig(4, PartitionStrategy::kContiguous), opts);
  EXPECT_EQ(replay.count, expected);
  EXPECT_EQ(replay.faults_injected, r.faults_injected);
  EXPECT_EQ(replay.units_recovered, r.units_recovered);
}

TEST(ShardChaos, ExhaustedRecoveryBudgetFailsClosed) {
  const Graph g = make_erdos_renyi(20, 0.3, 4);
  const Pattern wedge(3, {{0, 1}, {1, 2}});
  dist::ShardedOptions opts;
  opts.fault.seed = 7;
  opts.fault.max_unit_attempts = 3;
  opts.fault.set_rate(FaultSite::kShardFailure, 1.0);
  const dist::ShardedResult r = dist::sharded_match(
      g, wedge, pconfig(2, PartitionStrategy::kContiguous), opts);
  EXPECT_EQ(r.status, QueryStatus::kInternalError);
  EXPECT_FALSE(r.error.empty());
}

TEST(ShardChaos, SimtEngineThrowInAShardUnitIsRetried) {
  // FaultSite::kEngineThrow makes the SIMT engine call itself throw; a shard
  // unit counts that as a failed attempt and re-runs with the next
  // incarnation.
  const Graph g = make_barabasi_albert(40, 3, 12);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  const std::uint64_t expected = reference(g, triangle);
  std::uint64_t faults = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    dist::ShardedOptions opts;
    opts.engine = EngineKind::kSimt;
    EngineConfig simt;
    simt.fault.seed = seed;
    simt.fault.set_rate(FaultSite::kEngineThrow, 0.3);
    const dist::ShardedResult r = dist::sharded_match(
        g, triangle, pconfig(4, PartitionStrategy::kContiguous), opts, {},
        simt);
    ASSERT_EQ(r.status, QueryStatus::kOk) << "seed=" << seed << " " << r.error;
    EXPECT_EQ(r.count, expected) << "seed=" << seed;
    faults += r.faults_injected;
  }
  EXPECT_GT(faults, 0u);

  // A unit whose every attempt throws fails closed.
  dist::ShardedOptions opts;
  opts.engine = EngineKind::kSimt;
  EngineConfig simt;
  simt.fault.set_rate(FaultSite::kEngineThrow, 1.0);
  opts.fault.max_unit_attempts = 3;
  const dist::ShardedResult r = dist::sharded_match(
      g, triangle, pconfig(4, PartitionStrategy::kContiguous), opts, {},
      simt);
  EXPECT_EQ(r.status, QueryStatus::kInternalError);
  EXPECT_FALSE(r.error.empty());
}

TEST(ShardChaos, AttemptShiftCanClearAPersistentFaultSchedule) {
  // The fault schedule is a pure function of (seed, incarnation, site, key)
  // and the caller's attempt number shifts the incarnation — the service
  // retry path relies on this to turn a losing schedule into a winning one
  // without changing the seed.
  const Graph g = make_erdos_renyi(16, 0.3, 11);
  const Pattern wedge(3, {{0, 1}, {1, 2}});
  const std::uint64_t expected = reference(g, wedge);
  dist::ShardedOptions opts;
  opts.fault.seed = 13;
  opts.fault.max_unit_attempts = 2;
  opts.fault.set_rate(FaultSite::kShardFailure, 0.6);
  const dist::ShardedMatcher matcher(wedge, opts);
  const dist::Partition p =
      dist::partition_graph(g, pconfig(2, PartitionStrategy::kContiguous));
  const MatchingPlan plan(reorder_for_matching(wedge), opts.plan);
  bool succeeded = false;
  for (std::uint64_t attempt = 0; attempt < 16 && !succeeded; ++attempt) {
    const dist::ShardedResult r = matcher.match(g, p, plan, {}, {}, attempt);
    if (r.status == QueryStatus::kOk) {
      EXPECT_EQ(r.count, expected);
      succeeded = true;
    }
  }
  EXPECT_TRUE(succeeded);
}

TEST(ShardChaos, CutChunkPageReadFailsClosed) {
  // The cut-edge term walks the caller's view inside a pool task. Over a
  // spill store whose every page read fails, the chunk must fail closed
  // through the unit budget, naming the page, instead of throwing out of
  // the task.
  const Graph g = make_barabasi_albert(400, 4, 7);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  const dist::Partition p =
      dist::partition_graph(g, pconfig(4, PartitionStrategy::kContiguous));
  ASSERT_FALSE(p.cut_edges.empty());
  storage::StoragePolicy policy;
  policy.backend = storage::Backend::kSpill;
  policy.memory_budget_bytes = 1024;
  policy.page_size = 512;
  FaultConfig fault;
  fault.set_rate(FaultSite::kPageRead, 1.0);
  fault.max_unit_attempts = 1;
  const auto store = storage::GraphStore::build(Graph(g), policy, fault);
  const auto lease = store->lease();

  dist::ShardedOptions opts;
  opts.fault.max_unit_attempts = 1;
  const dist::ShardedMatcher matcher(triangle, opts);
  const MatchingPlan plan(reorder_for_matching(triangle), opts.plan);
  const dist::ShardedResult r = matcher.match(store->view(), p, plan, {}, {});
  EXPECT_EQ(r.status, QueryStatus::kInternalError);
  EXPECT_NE(r.error.find("storage: page "), std::string::npos) << r.error;
  EXPECT_GT(store->stats().injected_page_faults, 0u);
}

TEST(ShardChaos, ServiceShardedModeSurvivesInjectedShardFailures) {
  Graph g = make_barabasi_albert(40, 3, 55);
  const Pattern triangle(3, {{0, 1}, {1, 2}, {0, 2}});
  const std::uint64_t expected = reference(g, triangle);

  SessionConfig cfg;
  cfg.sharding.num_shards = 4;
  cfg.fault.seed = 21;
  cfg.fault.max_unit_attempts = 6;
  cfg.fault.set_rate(FaultSite::kShardFailure, 0.15);
  GraphSession session(std::move(g), cfg);

  QueryRequest req;
  req.pattern = triangle;
  req.deadline_ms = -1.0;
  const QueryResult r = session.run(req);
  ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(r.count, expected);
  EXPECT_GE(session.metrics().counter("sharded_queries").value(), 1u);
}

}  // namespace
}  // namespace stm
