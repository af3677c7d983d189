// Chaos tests for the session's own fault schedule (SessionConfig::fault,
// DESIGN.md §9): all six session sites injecting at once under interleaved
// batches and count queries, then a durable restore; the booking of the
// pool, update and page-read sites in faults_injected_total; and the
// construction-time checks of the schedule (the budget rule, and engine or
// stream sites that no session component reads).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "baselines/reference.hpp"
#include "core/fault.hpp"
#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "service/stream.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

namespace fs = std::filesystem;

/// A unique scratch directory, removed on scope exit.
class ScopedDir {
 public:
  explicit ScopedDir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    path_ = fs::temp_directory_path() /
            ("stmatch-session-chaos-" + tag + "-" + std::to_string(::getpid()) +
             "-" + std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

Pattern triangle() { return Pattern::parse("0-1,1-2,2-0"); }

QueryRequest count_request(EngineKind engine) {
  QueryRequest req;
  req.pattern = triangle();
  req.engine = engine;
  req.deadline_ms = -1.0;
  return req;
}

/// A spill tier whose page cache holds a small share of the graph, so
/// queries keep reading pages.
storage::StoragePolicy spill(std::uint64_t budget_bytes,
                             std::uint32_t page_size) {
  storage::StoragePolicy p;
  p.backend = storage::Backend::kSpill;
  p.memory_budget_bytes = budget_bytes;
  p.page_size = page_size;
  return p;
}

/// Random pairs of the current version: deletions when present, insertions
/// when absent.
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

/// The check_error message constructing a session with `cfg` raises, or ""
/// when construction succeeds.
std::string construction_error(const Graph& g, const SessionConfig& cfg) {
  try {
    GraphSession session(g, cfg);
  } catch (const check_error& e) {
    return e.what();
  }
  return "";
}

TEST(SessionChaos, EverySessionSiteAtOnce) {
  ScopedDir dir("every-site");
  const Graph g = make_barabasi_albert(400, 4, 7);
  SessionConfig cfg;
  cfg.persistence.dir = dir.str();
  cfg.persistence.fsync = false;  // process-kill durability is what we test
  cfg.persistence.checkpoint_every_batches = 4;
  cfg.sharding.num_shards = 4;
  cfg.storage = spill(2048, 512);
  // Seed 3 fails some batches at kUpdateApply, so the failed-batch checks
  // below run; every other site recovers within the default budget.
  cfg.fault.seed = 3;
  cfg.fault.set_rate(FaultSite::kPoolTask, 0.1)
      .set_rate(FaultSite::kUpdateApply, 0.1)
      .set_rate(FaultSite::kShardFailure, 0.1)
      .set_rate(FaultSite::kWalAppend, 0.1)
      .set_rate(FaultSite::kCheckpointWrite, 0.1)
      .set_rate(FaultSite::kPageRead, 0.05);

  // No-injection oracle advanced by the acknowledged batches only.
  MutableGraph oracle{Graph(g)};
  std::uint64_t id = 0;
  std::uint64_t acked_epoch = 0;
  std::uint64_t acked_count = 0;
  int failed = 0;
  int counted = 0;
  {
    GraphSession session(g, cfg);
    StandingQueryConfig sq;
    sq.pattern = triangle();
    id = session.register_standing_query(sq);

    Rng rng(99);
    for (int b = 0; b < 20; ++b) {
      const UpdateBatch batch = random_batch(*oracle.snapshot(), rng, 12);
      const std::shared_ptr<const GraphSnapshot> before = session.snapshot();
      const std::uint64_t standing_before = session.standing_query(id)->count;
      const UpdateOutcome out = session.apply_updates(batch);
      if (!out.ok()) {
        // Failed closed: the published version, its epoch and the standing
        // count are the ones from before the batch.
        ++failed;
        EXPECT_EQ(out.status, QueryStatus::kInternalError) << out.error;
        EXPECT_FALSE(out.error.empty());
        EXPECT_EQ(session.snapshot(), before) << "batch " << b;
        EXPECT_EQ(out.epoch, before->epoch());
        EXPECT_EQ(session.standing_query(id)->count, standing_before);
        continue;
      }
      oracle.apply(batch);
      ASSERT_EQ(out.epoch, oracle.epoch()) << "batch " << b;

      const QueryResult r = session.run(
          count_request(b % 2 == 0 ? EngineKind::kHost : EngineKind::kSimt));
      if (!r.ok()) {
        EXPECT_FALSE(r.error.empty());
        continue;
      }
      ++counted;
      EXPECT_EQ(r.graph_epoch, oracle.epoch()) << "batch " << b;
      EXPECT_EQ(r.count, reference_count(oracle.snapshot()->view(), triangle()))
          << "batch " << b;
    }
    EXPECT_GT(failed, 0) << "the kUpdateApply schedule never fired";
    EXPECT_GT(counted, 0);
    acked_epoch = session.epoch();
    acked_count = session.standing_query(id)->count;
    EXPECT_EQ(acked_epoch, oracle.epoch());
    EXPECT_EQ(acked_count,
              reference_count(oracle.snapshot()->view(), triangle()));

    MetricsRegistry& m = session.metrics();
    EXPECT_GT(m.counter("faults_injected_total").value(), 0u);
    EXPECT_GT(m.counter("sharded_queries").value(), 0u);
    EXPECT_GT(m.counter("checkpoints_written").value(), 0u);
    EXPECT_GT(m.counter("storage_page_faults_total").value(), 0u);
  }

  auto restored = GraphSession::restore(cfg);
  EXPECT_EQ(restored->epoch(), acked_epoch);
  ASSERT_TRUE(restored->standing_query(id).has_value());
  EXPECT_EQ(restored->standing_query(id)->count, acked_count);
  const QueryResult r = restored->run(count_request(EngineKind::kHost));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.count, acked_count);
}

TEST(SessionChaos, PoolFaultsReachTheFaultCounter) {
  SessionConfig cfg;
  cfg.fault.set_rate(FaultSite::kPoolTask, 1.0);
  cfg.fault.max_unit_attempts = 2;
  GraphSession session(make_barabasi_albert(100, 3, 5), cfg);
  // The query's dispatcher task is requeued twice, then runs.
  const QueryResult r = session.run(count_request(EngineKind::kHost));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(session.metrics().counter("faults_injected_total").value(), 2u);
}

TEST(SessionChaos, UpdateFaultReachesTheFaultCounter) {
  SessionConfig cfg;
  cfg.fault.set_rate(FaultSite::kUpdateApply, 1.0);
  const Graph g = make_barabasi_albert(100, 3, 5);
  GraphSession session(g, cfg);
  UpdateBatch batch;
  batch.deletions = {{0, g.neighbors(0).front()}};
  EXPECT_EQ(session.apply_updates(batch).status, QueryStatus::kInternalError);
  EXPECT_EQ(session.metrics().counter("faults_injected_total").value(), 1u);
}

TEST(SessionChaos, PageReadFaultsReachTheFaultCounter) {
  SessionConfig cfg;
  cfg.storage = spill(1024, 256);
  cfg.fault.set_rate(FaultSite::kPageRead, 1.0);
  cfg.fault.max_unit_attempts = 2;
  GraphSession session(make_barabasi_albert(200, 4, 131), cfg);
  // The first page read fails both attempts. The storage is at fault, so
  // the query is retried and falls back to kReference, each of the four
  // engine calls failing that page read twice, and fails closed as an
  // internal error.
  const QueryResult r = session.run(count_request(EngineKind::kHost));
  EXPECT_EQ(r.status, QueryStatus::kInternalError);
  EXPECT_NE(r.error.find("page"), std::string::npos) << r.error;
  EXPECT_EQ(r.attempts, 4u);
  EXPECT_EQ(session.metrics().counter("faults_injected_total").value(), 8u);
}

TEST(SessionChaos, ExhaustedPageFailsTheBatchAsInternal) {
  // The batch's redundancy check reads an endpoint's page, which fails
  // every attempt: the batch is not at fault, and nothing is published.
  SessionConfig cfg;
  cfg.storage = spill(1024, 256);
  cfg.fault.set_rate(FaultSite::kPageRead, 1.0);
  cfg.fault.max_unit_attempts = 2;
  GraphSession session(make_barabasi_albert(200, 4, 131), cfg);
  const std::uint64_t epoch = session.epoch();
  UpdateBatch batch;
  batch.insertions = {{3, 150}};
  const UpdateOutcome out = session.apply_updates(batch);
  EXPECT_EQ(out.status, QueryStatus::kInternalError);
  EXPECT_NE(out.error.find("page"), std::string::npos) << out.error;
  EXPECT_EQ(out.epoch, epoch);
  EXPECT_EQ(session.epoch(), epoch);
}

TEST(SessionChaos, ExhaustedPageFailsAStreamAsInternal) {
  // The stream's producer reads a page that fails every attempt: the
  // stream ends without an embedding, and the request is not blamed.
  SessionConfig cfg;
  cfg.storage = spill(1024, 256);
  cfg.fault.set_rate(FaultSite::kPageRead, 1.0);
  cfg.fault.max_unit_attempts = 2;
  GraphSession session(make_barabasi_albert(200, 4, 131), cfg);
  StreamRequest req;
  req.query = count_request(EngineKind::kHost);
  const auto stream = session.open_stream(req);
  Embedding e;
  EXPECT_FALSE(stream->next(&e));
  const QueryResult r = stream->result();
  EXPECT_EQ(r.status, QueryStatus::kInternalError);
  EXPECT_NE(r.error.find("page"), std::string::npos) << r.error;
}

TEST(SessionChaos, ZeroBudgetIsRejectedAtConstruction) {
  // With every rate at 0 a zero budget once failed every spill read, and
  // degraded every sharded query to kReference.
  const Graph g = make_barabasi_albert(2000, 4, 1);
  SessionConfig spilled;
  spilled.storage = spill(16 * 1024, storage::kDefaultPageSize);
  spilled.fault.max_unit_attempts = 0;
  EXPECT_NE(construction_error(g, spilled)
                .find("SessionConfig::fault.max_unit_attempts must be >= 1"),
            std::string::npos);

  SessionConfig sharded;
  sharded.sharding.num_shards = 4;
  sharded.fault.max_unit_attempts = 0;
  EXPECT_NE(construction_error(g, sharded)
                .find("SessionConfig::fault.max_unit_attempts must be >= 1"),
            std::string::npos);
}

TEST(SessionChaos, EngineSiteIsRejectedAtConstruction) {
  const Graph g = make_barabasi_albert(100, 3, 5);
  const struct {
    FaultSite site;
    const char* field;
  } cases[] = {
      {FaultSite::kWarpAbort, "QueryRequest::simt.fault"},
      {FaultSite::kSlabAlloc, "QueryRequest::simt.fault"},
      {FaultSite::kStealLoss, "QueryRequest::simt.fault"},
      {FaultSite::kDeviceFail, "QueryRequest::simt.fault"},
      {FaultSite::kHostTask, "QueryRequest::host.fault"},
      {FaultSite::kEngineThrow, "QueryRequest::host.fault"},
      {FaultSite::kEmitDrop, "StreamOptions::emit_fault"},
  };
  for (const auto& c : cases) {
    SessionConfig cfg;
    cfg.fault.set_rate(c.site, 0.1);
    EXPECT_NE(construction_error(g, cfg).find(c.field), std::string::npos)
        << to_string(c.site);
  }
}

}  // namespace
}  // namespace stm
