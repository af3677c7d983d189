// Tests for the query service layer: GraphSession, plan cache, admission
// control, deadlines/cancellation, and metrics consistency.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <latch>
#include <thread>
#include <vector>

#include "baselines/reference.hpp"
#include "core/cancel.hpp"
#include "core/engine.hpp"
#include "core/host_engine.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"
#include "service/admission.hpp"
#include "service/plan_cache.hpp"
#include "service/service.hpp"

namespace stm {
namespace {

QueryRequest host_request(const Pattern& p, double deadline_ms = -1.0) {
  QueryRequest req;
  req.pattern = p;
  req.deadline_ms = deadline_ms;
  return req;
}

void expect_metrics_identities(GraphSession& session) {
  MetricsRegistry& m = session.metrics();
  const std::uint64_t submitted = m.counter("queries_submitted").value();
  const std::uint64_t admitted = m.counter("queries_admitted").value();
  const std::uint64_t rejected = m.counter("queries_rejected").value();
  const std::uint64_t completed = m.counter("queries_completed").value();
  const std::uint64_t failed = m.counter("queries_failed").value();
  EXPECT_EQ(submitted, admitted + rejected);
  EXPECT_EQ(admitted, completed + failed);
}

// ---------------------------------------------------------------------------
// AdmissionController (deterministic unit tests via latches)
// ---------------------------------------------------------------------------

TEST(Admission, BoundsRunningPlusQueued) {
  AdmissionController ctrl(/*num_workers=*/2, /*max_queue=*/1);
  std::latch release(1);
  std::latch both_started(2);
  std::atomic<int> ran{0};
  auto blocker = [&] {
    both_started.count_down();
    release.wait();
    ran.fetch_add(1);
  };
  ASSERT_TRUE(ctrl.admit(QueryPriority::kNormal, blocker));
  ASSERT_TRUE(ctrl.admit(QueryPriority::kNormal, blocker));
  both_started.wait();  // both workers are occupied
  // One queue slot left, then full.
  EXPECT_TRUE(ctrl.admit(QueryPriority::kNormal, [&] { ran.fetch_add(1); }));
  EXPECT_FALSE(ctrl.admit(QueryPriority::kNormal, [&] { ran.fetch_add(1); }));
  EXPECT_EQ(ctrl.queue_depth(), 1u);
  release.count_down();
  ctrl.drain();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(ctrl.queue_depth(), 0u);
  EXPECT_EQ(ctrl.inflight(), 0u);
}

TEST(Admission, DrainsHigherPriorityFirst) {
  AdmissionController ctrl(/*num_workers=*/1, /*max_queue=*/8);
  std::latch started(1), release(1);
  std::mutex mu;
  std::vector<int> order;
  ASSERT_TRUE(ctrl.admit(QueryPriority::kNormal, [&] {
    started.count_down();
    release.wait();
  }));
  started.wait();  // the single worker is pinned; everything below queues
  auto record = [&](int id) {
    return [&order, &mu, id] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(id);
    };
  };
  ASSERT_TRUE(ctrl.admit(QueryPriority::kLow, record(1)));
  ASSERT_TRUE(ctrl.admit(QueryPriority::kLow, record(2)));
  ASSERT_TRUE(ctrl.admit(QueryPriority::kHigh, record(3)));
  ASSERT_TRUE(ctrl.admit(QueryPriority::kNormal, record(4)));
  release.count_down();
  ctrl.drain();
  ASSERT_EQ(order.size(), 4u);
  // High first, then normal, then the low jobs in FIFO order.
  EXPECT_EQ(order, (std::vector<int>{3, 4, 1, 2}));
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

TEST(PlanCache, HitOnRepeatAndOnRenumbering) {
  PlanCache cache(8);
  bool hit = true;
  auto p1 = cache.get_or_compile(query(8), {}, &hit);
  EXPECT_FALSE(hit);
  auto p2 = cache.get_or_compile(query(8), {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());  // literally the same plan
  // q23 (K7 minus an edge) renumbered by {6,4,2,0,1,3,5} moves the missing
  // edge, yet reorders to q23's own compile input, so it hits q23's plan.
  auto p3 = cache.get_or_compile(query(23), {}, &hit);
  EXPECT_FALSE(hit);
  const Pattern shuffled = query(23).relabeled({6, 4, 2, 0, 1, 3, 5});
  ASSERT_NE(shuffled.to_string(), query(23).to_string());
  auto p4 = cache.get_or_compile(shuffled, {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p3.get(), p4.get());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, OptionsArePartOfTheKey) {
  PlanCache cache(8);
  bool hit = true;
  PlanOptions unique;
  unique.count_mode = CountMode::kUniqueSubgraphs;
  cache.get_or_compile(query(5), {}, &hit);
  EXPECT_FALSE(hit);
  cache.get_or_compile(query(5), unique, &hit);
  EXPECT_FALSE(hit);  // different options -> different plan
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, LruEvictionDropsOldest) {
  PlanCache cache(2);
  bool hit = false;
  cache.get_or_compile(query(1), {}, &hit);
  cache.get_or_compile(query(2), {}, &hit);
  cache.get_or_compile(query(1), {}, &hit);  // q1 becomes MRU
  EXPECT_TRUE(hit);
  cache.get_or_compile(query(3), {}, &hit);  // evicts q2 (LRU)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  cache.get_or_compile(query(1), {}, &hit);
  EXPECT_TRUE(hit);  // survived
  cache.get_or_compile(query(2), {}, &hit);
  EXPECT_FALSE(hit);  // was evicted, recompiled
}

TEST(PlanCache, ConcurrentLookupsAreSafe) {
  PlanCache cache(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache] {
      for (int i = 0; i < 50; ++i) {
        auto plan = cache.get_or_compile(query(1 + (i % 6)), {});
        ASSERT_NE(plan, nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 200u);
  EXPECT_LE(cache.size(), 6u);
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation
// ---------------------------------------------------------------------------

TEST(ServiceDeadline, ExpiryReturnsPartialAndSessionStaysUsable) {
  // q17 on the enron proxy runs far past any reasonable budget (seconds);
  // a 150 ms deadline must interrupt it quickly and leave the session fine.
  GraphSession session(make_skewed_dataset("enron", 0.25));
  const double deadline_ms = 150.0;
  QueryResult slow = session.run(host_request(query(17), deadline_ms));
  EXPECT_EQ(slow.status, QueryStatus::kDeadlineExceeded);
  EXPECT_GT(slow.count, 0u);  // partial work is reported
  EXPECT_LE(slow.total_ms, 2.0 * deadline_ms);

  // The session serves later queries normally.
  QueryResult fast = session.run(host_request(query(23)));
  EXPECT_EQ(fast.status, QueryStatus::kOk);
  EXPECT_EQ(fast.count, reference_count(session.graph(), query(23)));
  expect_metrics_identities(session);
}

TEST(ServiceDeadline, SimtEngineHonorsDeadline) {
  GraphSession session(make_skewed_dataset("enron", 0.25));
  QueryRequest req = host_request(query(17), 150.0);
  req.engine = EngineKind::kSimt;
  QueryResult r = session.run(std::move(req));
  EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded);
  EXPECT_LE(r.total_ms, 300.0);
}

TEST(ServiceDeadline, PreExpiredDeadlineSkipsExecution) {
  GraphSession session(make_barabasi_albert(100, 3, 1));
  QueryResult r = session.run(host_request(query(1), 1e-6));
  EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded);
  EXPECT_EQ(r.count, 0u);
  EXPECT_FALSE(r.plan_cache_hit);
}

TEST(ServiceDeadline, CancelAllInterruptsRunningQueries) {
  GraphSession session(make_skewed_dataset("enron", 0.25));
  auto future = session.submit(host_request(query(17)));  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  session.cancel_all();
  QueryResult r = future.get();
  EXPECT_EQ(r.status, QueryStatus::kCancelled);
  // And afterwards the session still answers.
  QueryResult ok = session.run(host_request(query(23)));
  EXPECT_EQ(ok.status, QueryStatus::kOk);
}

TEST(EngineCancel, PreCancelledTokenStopsHostEngine) {
  const Graph g = make_barabasi_albert(300, 4, 7);
  const MatchingPlan plan(reorder_for_matching(query(17)), {});
  CancelToken token;
  token.cancel();
  HostEngineConfig cfg;
  cfg.num_threads = 1;
  const HostMatchResult r = host_match(g, plan, cfg, &token);
  EXPECT_EQ(r.stats.status, QueryStatus::kCancelled);
}

TEST(EngineCancel, PreCancelledTokenStopsSimtEngine) {
  const Graph g = make_barabasi_albert(300, 4, 7);
  const MatchingPlan plan(reorder_for_matching(query(17)), {});
  CancelToken token;
  token.cancel();
  const MatchResult r = stmatch_match(g, plan, {}, &token);
  EXPECT_EQ(r.query.status, QueryStatus::kCancelled);
}

// ---------------------------------------------------------------------------
// Plan cache through the session
// ---------------------------------------------------------------------------

TEST(ServiceCache, WarmHitReturnsIdenticalCounts) {
  GraphSession session(make_barabasi_albert(200, 6, 5));
  const std::uint64_t expected = reference_count(session.graph(), query(8));
  ASSERT_GT(expected, 0u);

  QueryResult cold = session.run(host_request(query(8)));
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_EQ(cold.count, expected);

  QueryResult warm = session.run(host_request(query(8)));
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_EQ(warm.count, expected);

  // A renumbering of q23 that reorders to q23's compile input hits, with
  // q23's count.
  const std::uint64_t expected23 =
      reference_count(session.graph(), query(23));
  ASSERT_GT(expected23, 0u);
  QueryResult cold23 = session.run(host_request(query(23)));
  EXPECT_FALSE(cold23.plan_cache_hit);
  EXPECT_EQ(cold23.count, expected23);
  QueryResult alias =
      session.run(host_request(query(23).relabeled({6, 4, 2, 0, 1, 3, 5})));
  EXPECT_TRUE(alias.plan_cache_hit);
  EXPECT_EQ(alias.count, expected23);

  EXPECT_EQ(session.plan_cache().stats().hits, 2u);
  EXPECT_EQ(session.plan_cache().stats().misses, 2u);
}

// ---------------------------------------------------------------------------
// Counting: one walk per automorphism class
// ---------------------------------------------------------------------------

TEST(ServiceCount, EmbeddingCountsWalkTheUniquePlan) {
  // An embeddings count is served as unique subgraphs x |Aut|: it must equal
  // the reference, and build exactly the sets of the unique request.
  const Graph plain = make_erdos_renyi(20, 0.3, 31);
  SessionConfig three_shards;
  three_shards.sharding.num_shards = 3;
  for (const bool labeled : {false, true}) {
    const Graph g = labeled ? with_random_labels(plain, 2, 31) : plain;
    GraphSession single{Graph(g)};
    GraphSession sharded{Graph(g), three_shards};
    for (int q = 1; q <= num_queries(); ++q) {
      Pattern p = query(q);
      if (labeled) {
        std::vector<Label> labels(p.size());
        for (std::size_t v = 0; v < p.size(); ++v)
          labels[v] = static_cast<Label>(v % 2);
        p = p.with_labels(std::move(labels));
      }
      for (Induced induced : {Induced::kEdge, Induced::kVertex}) {
        const std::uint64_t want =
            reference_count(g, p, {induced, CountMode::kEmbeddings});
        // Only edge-induced queries are sharded.
        std::vector<std::pair<GraphSession*, EngineKind>> lanes = {
            {&single, EngineKind::kHost},
            {&single, EngineKind::kSimt},
            {&single, EngineKind::kReference}};
        if (induced == Induced::kEdge) {
          lanes.emplace_back(&sharded, EngineKind::kHost);
          lanes.emplace_back(&sharded, EngineKind::kSimt);
        }
        for (const auto& [session, engine] : lanes) {
          QueryRequest req = host_request(p);
          req.plan.induced = induced;
          req.engine = engine;
          const QueryResult emb = session->run(req);
          req.plan.count_mode = CountMode::kUniqueSubgraphs;
          const QueryResult uniq = session->run(req);
          const std::string what =
              query_name(q) + " " + to_string(engine) +
              (labeled ? " labeled" : "") +
              (session == &sharded ? " sharded" : "") +
              (induced == Induced::kVertex ? " vertex" : " edge");
          ASSERT_EQ(emb.status, QueryStatus::kOk) << what << emb.error;
          ASSERT_EQ(uniq.status, QueryStatus::kOk) << what << uniq.error;
          EXPECT_EQ(emb.count, want) << what;
          EXPECT_EQ(emb.stats.sets_built, uniq.stats.sets_built) << what;
        }
        if (induced != Induced::kEdge) continue;
        // A standing registration's baseline is counted the same way.
        StandingQueryConfig standing;
        standing.pattern = p;
        const auto info =
            single.standing_query(single.register_standing_query(standing));
        ASSERT_TRUE(info.has_value());
        EXPECT_EQ(info->count, want) << query_name(q);
      }
    }
    EXPECT_GT(sharded.metrics().counter("sharded_queries").value(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Overload rejection through the session
// ---------------------------------------------------------------------------

TEST(ServiceOverload, RejectsWhenQueueIsFull) {
  SessionConfig cfg;
  cfg.max_concurrent_queries = 1;
  cfg.max_queued_queries = 1;
  GraphSession session(make_skewed_dataset("enron", 0.25), cfg);

  // Four slow queries: one runs, one queues, two are shed.
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(session.submit(host_request(query(17), 500.0)));

  int overloaded = 0;
  int finished = 0;
  for (auto& f : futures) {
    const QueryResult r = f.get();
    if (r.status == QueryStatus::kOverloaded) {
      ++overloaded;
      EXPECT_EQ(r.count, 0u);
    } else {
      ++finished;
      EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded);
    }
  }
  EXPECT_EQ(overloaded, 2);
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(session.metrics().counter("queries_rejected").value(), 2u);
  expect_metrics_identities(session);
}

// ---------------------------------------------------------------------------
// Concurrent mixed load vs the reference enumerator
// ---------------------------------------------------------------------------

TEST(ServiceConcurrency, MixedQueriesMatchReference) {
  SessionConfig cfg;
  cfg.max_concurrent_queries = 4;
  cfg.max_queued_queries = 64;
  GraphSession session(make_barabasi_albert(200, 3, 9));

  struct Case {
    int q;
    EngineKind engine;
  };
  std::vector<Case> cases;
  for (int q = 1; q <= 12; ++q) cases.push_back({q, EngineKind::kHost});
  for (int q = 1; q <= 6; ++q) cases.push_back({q, EngineKind::kSimt});

  std::vector<std::future<QueryResult>> futures;
  for (const Case& c : cases) {
    QueryRequest req = host_request(query(c.q));
    req.engine = c.engine;
    futures.push_back(session.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const QueryResult r = futures[i].get();
    ASSERT_EQ(r.status, QueryStatus::kOk) << "q" << cases[i].q;
    EXPECT_EQ(r.count, reference_count(session.graph(), query(cases[i].q)))
        << "q" << cases[i].q << " engine "
        << (cases[i].engine == EngineKind::kHost ? "host" : "simt");
  }
  expect_metrics_identities(session);
  EXPECT_EQ(session.metrics().counter("queries_completed").value(),
            cases.size());
  // 12 distinct patterns; the 6 SIMT submissions reuse the host plans.
  EXPECT_GE(session.plan_cache().stats().hits, 6u);
}

// ---------------------------------------------------------------------------
// Error reporting
// ---------------------------------------------------------------------------

TEST(ServiceErrors, DisconnectedPatternReportsInvalidArgument) {
  GraphSession session(make_barabasi_albert(50, 3, 2));
  const QueryResult r =
      session.run(host_request(Pattern::parse("0-1,2-3")));
  EXPECT_EQ(r.status, QueryStatus::kInvalidArgument);
  EXPECT_FALSE(r.error.empty());
  // Session unharmed.
  const QueryResult ok = session.run(host_request(query(1)));
  EXPECT_EQ(ok.status, QueryStatus::kOk);
  expect_metrics_identities(session);
}

}  // namespace
}  // namespace stm
