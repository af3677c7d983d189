// Chaos tests for the multi-query standing-query index: kUpdateApply faults
// racing indexed evaluation (failed batches must leave every standing count
// untouched; survivors must stay exact), deterministic replay of a faulted
// run, and kEmitDrop stream recovery composed with an indexed session.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "baselines/reference.hpp"
#include "core/fault.hpp"
#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "service/stream.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

Pattern triangle() { return Pattern::parse("0-1,1-2,2-0"); }

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

TEST(MqoChaos, UpdateFaultsLeaveIndexedCountsExact) {
  SessionConfig cfg;
  cfg.fault.seed = 17;
  cfg.fault.set_rate(FaultSite::kUpdateApply, 0.3);
  GraphSession session(make_erdos_renyi(30, 0.15, 23), cfg);

  const std::vector<Pattern> patterns{triangle(),
                                      triangle().relabeled({1, 2, 0}),
                                      Pattern::parse("0-1,1-2")};
  std::vector<std::uint64_t> ids;
  for (const Pattern& p : patterns) {
    StandingQueryConfig sq;
    sq.pattern = p;
    ids.push_back(session.register_standing_query(sq));
  }

  Rng rng(4711);
  int failed = 0, succeeded = 0;
  for (int b = 0; b < 24; ++b) {
    // Snapshot the standing state before the batch so a failed apply can be
    // checked for exact rollback.
    std::vector<std::uint64_t> before;
    for (const std::uint64_t id : ids) {
      before.push_back(session.standing_query(id)->count);
    }
    const std::uint64_t epoch_before = session.epoch();
    const UpdateOutcome out =
        session.apply_updates(random_batch(*session.snapshot(), rng, 5));
    if (!out.ok()) {
      ++failed;
      EXPECT_EQ(out.status, QueryStatus::kInternalError);
      EXPECT_EQ(session.epoch(), epoch_before);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(session.standing_query(ids[i])->count, before[i])
            << "failed batch " << b << " perturbed standing query " << i;
      }
      continue;
    }
    ++succeeded;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(session.standing_query(ids[i])->count,
                reference_count(session.snapshot()->view(), patterns[i], {}))
          << "batch " << b << " query " << i;
    }
  }
  // A 30% rate over 24 batches must exercise both paths.
  EXPECT_GT(failed, 0);
  EXPECT_GT(succeeded, 0);
}

TEST(MqoChaos, FaultedRunReplaysDeterministically) {
  const Graph base = make_erdos_renyi(28, 0.15, 5);
  const auto run = [&base]() {
    SessionConfig cfg;
    cfg.fault.seed = 9;
    cfg.fault.set_rate(FaultSite::kUpdateApply, 0.25);
    GraphSession session(base, cfg);
    StandingQueryConfig sq;
    sq.pattern = triangle();
    const std::uint64_t id = session.register_standing_query(sq);

    std::vector<std::int64_t> trace;
    Rng rng(12);
    for (int b = 0; b < 16; ++b) {
      const UpdateOutcome out =
          session.apply_updates(random_batch(*session.snapshot(), rng, 4));
      if (out.ok()) {
        EXPECT_EQ(out.updates.size(), 1u);
        trace.push_back(out.updates[0].delta);
      } else {
        trace.push_back(std::numeric_limits<std::int64_t>::min());
      }
    }
    trace.push_back(
        static_cast<std::int64_t>(session.standing_query(id)->count));
    trace.push_back(static_cast<std::int64_t>(session.epoch()));
    return trace;
  };
  const std::vector<std::int64_t> first = run();
  EXPECT_EQ(first, run()) << "faulted indexed run is not replayable";
  EXPECT_TRUE(std::any_of(first.begin(), first.end(), [](std::int64_t v) {
    return v == std::numeric_limits<std::int64_t>::min();
  })) << "fault rate never fired; the replay test is vacuous";
}

TEST(MqoChaos, EmitDropRecoveryComposesWithIndexedSession) {
  GraphSession session(make_erdos_renyi(40, 0.2, 13));
  StandingQueryConfig sq;
  sq.pattern = triangle();
  const std::uint64_t id = session.register_standing_query(sq);
  const std::uint64_t standing = session.standing_query(id)->count;

  const auto drain = [&session](StreamRequest req, QueryResult* out) {
    auto s = session.open_stream(std::move(req));
    std::vector<Embedding> got;
    Embedding e;
    while (s->next(&e)) got.push_back(std::move(e));
    *out = s->result();
    return got;
  };

  StreamRequest clean_req;
  clean_req.query.pattern = triangle();
  QueryResult clean_result;
  const std::vector<Embedding> clean = drain(clean_req, &clean_result);
  ASSERT_EQ(clean_result.status, QueryStatus::kOk);
  ASSERT_GT(clean.size(), 0u);

  StreamRequest req;
  req.query.pattern = triangle();
  req.query.host.chunk_size = 1;
  req.stream.emit_fault.seed = 3;
  req.stream.emit_fault.set_rate(FaultSite::kEmitDrop, 0.15);
  QueryResult r;
  const std::vector<Embedding> got = drain(req, &r);
  EXPECT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(got, clean);
  EXPECT_GT(r.stats.faults_injected, 0u);

  // The faulted stream ran read-only: the indexed standing state is intact
  // and subsequent batches stay exact.
  EXPECT_EQ(session.standing_query(id)->count, standing);
  Rng rng(99);
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(
        session.apply_updates(random_batch(*session.snapshot(), rng, 4)).ok());
  }
  EXPECT_EQ(session.standing_query(id)->count,
            reference_count(session.snapshot()->view(), triangle(), {}));
}

}  // namespace
}  // namespace stm
