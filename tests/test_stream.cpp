// Tests for the streaming results subsystem (service/stream.hpp): ordered
// emission, cursor pagination and resume tokens, limits, cancellation,
// deadlines, top-k, standing-query embedding deltas, admission and metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/reference.hpp"
#include "graph/generators.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"
#include "service/service.hpp"
#include "service/stream.hpp"
#include "testing/oracle.hpp"
#include "testing/workload.hpp"
#include "util/check.hpp"

namespace stm {
namespace {

Pattern triangle() { return Pattern::parse("0-1,1-2,2-0"); }
Pattern square() { return Pattern::parse("0-1,1-2,2-3,3-0"); }

StreamRequest stream_request(const Pattern& p,
                             EngineKind engine = EngineKind::kHost) {
  StreamRequest req;
  req.query.pattern = p;
  req.query.engine = engine;
  return req;
}

/// Drains a stream to the end; fills *out with the terminal result.
std::vector<Embedding> drain(GraphSession& session, StreamRequest req,
                             QueryResult* out = nullptr,
                             std::string* token = nullptr) {
  auto s = session.open_stream(std::move(req));
  std::vector<Embedding> got;
  Embedding e;
  while (s->next(&e)) got.push_back(std::move(e));
  if (out != nullptr) *out = s->result();
  if (token != nullptr) *token = s->resume_token();
  return got;
}

/// Brute-force embedding list in original-pattern vertex order (the
/// reference enumerator reports plan-order mappings), sorted.
std::vector<Embedding> reference_embeddings(const Graph& g, const Pattern& p,
                                            const PlanOptions& opts = {}) {
  const std::vector<std::size_t> order = matching_order(p);
  std::vector<Embedding> ref;
  std::vector<VertexId> orig(p.size());
  reference_enumerate(GraphView(g), p, {opts.induced, opts.count_mode},
                      [&](const std::vector<VertexId>& m) {
                        for (std::size_t i = 0; i < order.size(); ++i)
                          orig[order[i]] = m[i];
                        ref.push_back(orig);
                      });
  std::sort(ref.begin(), ref.end());
  return ref;
}

// ---------------------------------------------------------------------------
// Order and exactness
// ---------------------------------------------------------------------------

TEST(StreamOrder, DrainedStreamMatchesReferenceEnumeration) {
  GraphSession session(make_erdos_renyi(48, 0.18, 7));
  QueryResult r;
  std::vector<Embedding> got = drain(session, stream_request(triangle()), &r);
  EXPECT_EQ(r.status, QueryStatus::kOk);
  EXPECT_EQ(r.count, got.size());
  ASSERT_GT(got.size(), 0u);

  // Global order: ascending v0 (the data vertex at plan position 0), and a
  // strict total order overall (no duplicates).
  const std::vector<std::size_t> order = matching_order(triangle());
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1][order[0]], got[i][order[0]]);
    EXPECT_NE(got[i - 1], got[i]);
  }

  std::vector<Embedding> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, reference_embeddings(session.graph(), triangle()));
}

TEST(StreamOrder, BitIdenticalAcrossEnginesThreadsAndBuffers) {
  GraphSession session(make_barabasi_albert(60, 3, 11));
  const Pattern p = square();

  QueryResult r;
  const std::vector<Embedding> want =
      drain(session, stream_request(p, EngineKind::kReference), &r);
  ASSERT_EQ(r.status, QueryStatus::kOk);
  ASSERT_GT(want.size(), 0u);

  for (std::size_t threads : {1u, 4u, 7u}) {
    StreamRequest req = stream_request(p, EngineKind::kHost);
    req.query.host.num_threads = threads;
    req.query.host.chunk_size = 3;
    EXPECT_EQ(drain(session, req, &r), want) << "host threads=" << threads;
    EXPECT_EQ(r.status, QueryStatus::kOk);
  }
  for (std::size_t buffered : {1u, 2u, 4096u}) {
    StreamRequest req = stream_request(p, EngineKind::kHost);
    req.query.host.num_threads = 4;
    req.stream.max_buffered = buffered;
    EXPECT_EQ(drain(session, req, &r), want) << "max_buffered=" << buffered;
    EXPECT_EQ(r.status, QueryStatus::kOk);
  }
  for (std::uint32_t chunk : {1u, 5u}) {
    StreamRequest req = stream_request(p, EngineKind::kSimt);
    req.query.simt.chunk_size = chunk;
    EXPECT_EQ(drain(session, req, &r), want) << "simt chunk=" << chunk;
    EXPECT_EQ(r.status, QueryStatus::kOk);
  }
}

TEST(StreamOrder, MatchlessStreamEndsImmediately) {
  GraphSession session(make_path(6));  // a path has no triangles
  QueryResult r;
  std::string token;
  const std::vector<Embedding> got =
      drain(session, stream_request(triangle()), &r, &token);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(r.status, QueryStatus::kOk);
  EXPECT_EQ(r.count, 0u);
  EXPECT_TRUE(token.empty()) << "an exhausted stream has no next page";
}

TEST(StreamOrder, UniqueSubgraphModeStreamsOneRepresentativePerSubgraph) {
  GraphSession session(make_clique(8));
  StreamRequest req = stream_request(triangle());
  req.query.plan.count_mode = CountMode::kUniqueSubgraphs;
  QueryResult r;
  const std::vector<Embedding> got = drain(session, req, &r);
  EXPECT_EQ(r.status, QueryStatus::kOk);
  EXPECT_EQ(got.size(), 56u);  // C(8,3) triangles
  // Representatives are distinct as vertex sets.
  std::vector<Embedding> sets;
  for (Embedding e : got) {
    std::sort(e.begin(), e.end());
    sets.push_back(std::move(e));
  }
  std::sort(sets.begin(), sets.end());
  EXPECT_EQ(std::unique(sets.begin(), sets.end()), sets.end());
}

// ---------------------------------------------------------------------------
// Limits and cursors
// ---------------------------------------------------------------------------

TEST(StreamCursor, LimitDeliversExactPageWithOkStatus) {
  GraphSession session(make_erdos_renyi(40, 0.2, 3));
  StreamRequest req = stream_request(triangle());
  req.stream.limit = 5;
  QueryResult r;
  std::string token;
  const std::vector<Embedding> got = drain(session, req, &r, &token);
  EXPECT_EQ(got.size(), 5u);
  EXPECT_EQ(r.status, QueryStatus::kOk);
  EXPECT_EQ(r.count, 5u);
  EXPECT_FALSE(token.empty()) << "a reached limit is not exhaustion";
}

TEST(StreamCursor, PagesConcatenateToTheFullStream) {
  GraphSession session(make_erdos_renyi(40, 0.2, 3));
  QueryResult r;
  const std::vector<Embedding> full =
      drain(session, stream_request(triangle()), &r);
  ASSERT_GT(full.size(), 10u);

  std::vector<Embedding> paged;
  std::string token;
  int pages = 0;
  do {
    StreamRequest req = stream_request(triangle());
    req.stream.limit = 7;
    req.stream.resume_token = token;
    const std::vector<Embedding> page = drain(session, req, &r, &token);
    ASSERT_EQ(r.status, QueryStatus::kOk);
    paged.insert(paged.end(), page.begin(), page.end());
    ASSERT_LE(++pages, 1000) << "cursor failed to terminate";
  } while (!token.empty());
  EXPECT_EQ(paged, full);
}

TEST(StreamCursor, ResumeIsEngineIndependent) {
  GraphSession session(make_barabasi_albert(50, 2, 19));
  QueryResult r;
  const std::vector<Embedding> full =
      drain(session, stream_request(square(), EngineKind::kHost), &r);
  ASSERT_GT(full.size(), 6u);

  StreamRequest first = stream_request(square(), EngineKind::kHost);
  first.stream.limit = full.size() / 2;
  std::string token;
  std::vector<Embedding> paged = drain(session, first, &r, &token);
  ASSERT_EQ(r.status, QueryStatus::kOk);
  ASSERT_FALSE(token.empty());

  // Continue the host-issued cursor on the SIMT engine.
  StreamRequest rest = stream_request(square(), EngineKind::kSimt);
  rest.stream.resume_token = token;
  const std::vector<Embedding> tail = drain(session, rest, &r, &token);
  EXPECT_EQ(r.status, QueryStatus::kOk);
  EXPECT_TRUE(token.empty());
  paged.insert(paged.end(), tail.begin(), tail.end());
  EXPECT_EQ(paged, full);
}

TEST(StreamCursor, TokenSurvivesSessionRestart) {
  const Graph g = make_erdos_renyi(36, 0.2, 5);
  std::string token;
  std::vector<Embedding> paged;
  QueryResult r;
  {
    GraphSession session{Graph(g)};
    StreamRequest req = stream_request(triangle());
    req.stream.limit = 4;
    paged = drain(session, req, &r, &token);
    ASSERT_EQ(r.status, QueryStatus::kOk);
    ASSERT_FALSE(token.empty());
  }
  // A fresh session over the same graph is at the same epoch; the token is
  // a pure stream position and remains valid.
  GraphSession session{Graph(g)};
  const std::vector<Embedding> full =
      drain(session, stream_request(triangle()), &r);
  StreamRequest rest = stream_request(triangle());
  rest.stream.resume_token = token;
  const std::vector<Embedding> tail = drain(session, rest, &r, &token);
  EXPECT_EQ(r.status, QueryStatus::kOk);
  paged.insert(paged.end(), tail.begin(), tail.end());
  EXPECT_EQ(paged, full);
}

TEST(StreamCursor, StaleEpochTokenIsRejected) {
  GraphSession session(make_erdos_renyi(36, 0.2, 5));
  StreamRequest req = stream_request(triangle());
  req.stream.limit = 3;
  QueryResult r;
  std::string token;
  drain(session, req, &r, &token);
  ASSERT_FALSE(token.empty());

  UpdateBatch batch;
  batch.insertions.emplace_back(0, 1);
  batch.insertions.emplace_back(0, 2);
  ASSERT_TRUE(session.apply_updates(std::move(batch)).ok());

  StreamRequest rest = stream_request(triangle());
  rest.stream.resume_token = token;
  const std::vector<Embedding> got = drain(session, rest, &r);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(r.status, QueryStatus::kInvalidArgument);
  EXPECT_FALSE(r.error.empty());
}

TEST(StreamCursor, TokenForADifferentPatternIsRejected) {
  GraphSession session(make_erdos_renyi(36, 0.2, 5));
  StreamRequest req = stream_request(triangle());
  req.stream.limit = 3;
  QueryResult r;
  std::string token;
  drain(session, req, &r, &token);
  ASSERT_FALSE(token.empty());

  StreamRequest other = stream_request(square());
  other.stream.resume_token = token;
  drain(session, other, &r);
  EXPECT_EQ(r.status, QueryStatus::kInvalidArgument);
  EXPECT_FALSE(r.error.empty());
}

TEST(StreamCursor, MalformedTokensAreRejected) {
  GraphSession session(make_clique(6));
  for (const char* bad : {"garbage", "stm1.0.zz", "stm2.0.0.0.0.0"}) {
    StreamRequest req = stream_request(triangle());
    req.stream.resume_token = bad;
    QueryResult r;
    drain(session, req, &r);
    EXPECT_EQ(r.status, QueryStatus::kInvalidArgument) << bad;
    EXPECT_FALSE(r.error.empty());
  }
}

// Stale and malformed tokens are distinguishable from the error text alone:
// stale tokens name the expected and observed epoch / fingerprint, malformed
// ones echo the expected layout.

TEST(StreamTokens, StaleEpochErrorNamesBothEpochs) {
  GraphSession session(make_erdos_renyi(36, 0.2, 5));
  StreamRequest req = stream_request(triangle());
  req.stream.limit = 3;
  QueryResult r;
  std::string token;
  drain(session, req, &r, &token);
  ASSERT_FALSE(token.empty());

  // Toggle an edge so the batch is guaranteed effective (redundant updates
  // are no-ops and would not advance the epoch).
  UpdateBatch batch;
  if (session.snapshot()->has_edge(0, 1))
    batch.deletions.emplace_back(0, 1);
  else
    batch.insertions.emplace_back(0, 1);
  ASSERT_TRUE(session.apply_updates(std::move(batch)).ok());
  ASSERT_EQ(session.epoch(), 1u);

  StreamRequest rest = stream_request(triangle());
  rest.stream.resume_token = token;
  drain(session, rest, &r);
  ASSERT_EQ(r.status, QueryStatus::kInvalidArgument);
  EXPECT_NE(r.error.find("stale resume token"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("epoch 0"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("epoch 1"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("moved on"), std::string::npos) << r.error;
  // Specifically NOT reported as malformed: the token is fine, the graph
  // changed underneath it.
  EXPECT_EQ(r.error.find("malformed"), std::string::npos) << r.error;
}

TEST(StreamTokens, FingerprintMismatchErrorNamesBothFingerprints) {
  GraphSession session(make_erdos_renyi(36, 0.2, 5));
  StreamRequest req = stream_request(triangle());
  req.stream.limit = 3;
  QueryResult r;
  std::string token;
  drain(session, req, &r, &token);
  ASSERT_FALSE(token.empty());
  // The token's own fingerprint field (3rd dot-separated field, hex).
  const std::size_t a = token.find('.', token.find('.') + 1);
  const std::string issued_fp =
      token.substr(a + 1, token.find('.', a + 1) - a - 1);

  StreamRequest other = stream_request(square());
  other.stream.resume_token = token;
  drain(session, other, &r);
  ASSERT_EQ(r.status, QueryStatus::kInvalidArgument);
  EXPECT_NE(r.error.find("stale resume token"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find(issued_fp), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("different pattern or plan options"),
            std::string::npos)
      << r.error;
}

TEST(StreamTokens, MalformedErrorEchoesExpectedLayoutAndToken) {
  GraphSession session(make_clique(6));
  StreamRequest req = stream_request(triangle());
  req.stream.resume_token = "stm1.not-a-number";
  QueryResult r;
  drain(session, req, &r);
  ASSERT_EQ(r.status, QueryStatus::kInvalidArgument);
  EXPECT_NE(r.error.find("malformed resume token"), std::string::npos)
      << r.error;
  EXPECT_NE(r.error.find("stm1.<epoch>.<fingerprint>.<v0>.<skip>.<total>"),
            std::string::npos)
      << r.error;
  EXPECT_NE(r.error.find("stm1.not-a-number"), std::string::npos) << r.error;
}

TEST(StreamCursor, RangeKnobsAreReservedForTheStream) {
  GraphSession session(make_clique(6));
  StreamRequest req = stream_request(triangle());
  req.query.host.v_begin = 2;
  QueryResult r;
  drain(session, req, &r);
  EXPECT_EQ(r.status, QueryStatus::kInvalidArgument);
  EXPECT_FALSE(r.error.empty());
}

// ---------------------------------------------------------------------------
// Cancellation, close, deadline
// ---------------------------------------------------------------------------

TEST(StreamCancel, CancelMidStreamYieldsAValidPrefix) {
  GraphSession session(make_erdos_renyi(48, 0.2, 9));
  QueryResult r;
  const std::vector<Embedding> full =
      drain(session, stream_request(triangle()), &r);
  ASSERT_GT(full.size(), 8u);

  auto s = session.open_stream(stream_request(triangle()));
  std::vector<Embedding> prefix;
  Embedding e;
  for (int i = 0; i < 5 && s->next(&e); ++i) prefix.push_back(e);
  s->cancel();
  while (s->next(&e)) prefix.push_back(e);  // drain whatever was released
  const QueryResult& res = s->result();
  EXPECT_EQ(res.status, QueryStatus::kCancelled);
  EXPECT_FALSE(res.error.empty());
  EXPECT_EQ(res.count, prefix.size());
  ASSERT_LE(prefix.size(), full.size());
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), full.begin()))
      << "the delivered embeddings must be a prefix of the full stream";

  // The prefix's token resumes to the rest of the stream.
  const std::string token = s->resume_token();
  ASSERT_FALSE(token.empty());
  StreamRequest rest = stream_request(triangle());
  rest.stream.resume_token = token;
  std::vector<Embedding> tail = drain(session, rest, &r);
  ASSERT_EQ(r.status, QueryStatus::kOk);
  prefix.insert(prefix.end(), tail.begin(), tail.end());
  EXPECT_EQ(prefix, full);
}

// Regression: a stream cancelled between admission and the first emission
// must still surface kCancelled with a populated error, not an empty one.
TEST(StreamCancel, CancelBeforeFirstNextReportsErrorDetail) {
  GraphSession session(make_erdos_renyi(48, 0.2, 9));
  auto s = session.open_stream(stream_request(triangle()));
  s->cancel();
  const QueryResult& r = s->result();
  EXPECT_EQ(r.status, QueryStatus::kCancelled);
  EXPECT_FALSE(r.error.empty())
      << "kCancelled before first emission must still carry error detail";
}

TEST(StreamCancel, ClosingViaResultMidStreamIsACancel) {
  GraphSession session(make_erdos_renyi(48, 0.2, 9));
  auto s = session.open_stream(stream_request(triangle()));
  Embedding e;
  ASSERT_TRUE(s->next(&e));
  const QueryResult& r = s->result();  // closes with most of the stream left
  EXPECT_EQ(r.status, QueryStatus::kCancelled);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.count, 1u);
}

TEST(StreamCancel, DeadlineBoundsTheStream) {
  GraphSession session(make_clique(26));
  StreamRequest req = stream_request(query(3));  // C5: millions on K26
  req.query.deadline_ms = 0.05;
  auto s = session.open_stream(std::move(req));
  std::vector<Embedding> prefix;
  Embedding e;
  while (s->next(&e)) prefix.push_back(std::move(e));
  const QueryResult& r = s->result();
  ASSERT_EQ(r.status, QueryStatus::kDeadlineExceeded);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.count, prefix.size());

  // The partial prefix is exactly the first N of a fresh limited stream.
  if (!prefix.empty()) {
    StreamRequest again = stream_request(query(3));
    again.stream.limit = prefix.size();
    QueryResult r2;
    EXPECT_EQ(drain(session, again, &r2), prefix);
    EXPECT_EQ(r2.status, QueryStatus::kOk);
  }
}

// ---------------------------------------------------------------------------
// Admission and metrics
// ---------------------------------------------------------------------------

TEST(StreamAdmission, MaxOpenStreamsShedsWithOverloaded) {
  SessionConfig cfg;
  cfg.max_open_streams = 1;
  GraphSession session(make_clique(10), cfg);

  auto held = session.open_stream(stream_request(triangle()));
  EXPECT_EQ(session.metrics().gauge("open_streams").value(), 1.0);

  auto shed = session.open_stream(stream_request(triangle()));
  Embedding e;
  EXPECT_FALSE(shed->next(&e));
  EXPECT_EQ(shed->result().status, QueryStatus::kOverloaded);
  EXPECT_FALSE(shed->result().error.empty());

  // Releasing the slot re-admits.
  (void)held->result();
  auto ok = session.open_stream(stream_request(triangle()));
  EXPECT_TRUE(ok->next(&e));
  (void)ok->result();
  EXPECT_EQ(session.metrics().gauge("open_streams").value(), 0.0);
}

TEST(StreamMetrics, CountersGaugesAndExports) {
  GraphSession session(make_erdos_renyi(40, 0.2, 3));
  QueryResult r;
  StreamRequest req = stream_request(triangle());
  req.query.host.num_threads = 4;
  req.stream.max_buffered = 2;  // force some backpressure accounting
  const std::vector<Embedding> got = drain(session, req, &r);
  ASSERT_EQ(r.status, QueryStatus::kOk);

  MetricsRegistry& m = session.metrics();
  EXPECT_GE(m.counter("stream_emitted_total").value(), got.size());
  EXPECT_EQ(m.gauge("open_streams").value(), 0.0);
  EXPECT_EQ(m.histogram("stream_backpressure_ms").snapshot().count, 1u);

  const std::string json = m.to_json();
  const std::string prom = m.to_prometheus();
  for (const char* name :
       {"stream_emitted_total", "stream_backpressure_ms", "open_streams"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }
}

// ---------------------------------------------------------------------------
// Top-k
// ---------------------------------------------------------------------------

TEST(StreamTopK, KeepsTheBestKWithDeterministicTies) {
  GraphSession session(make_erdos_renyi(40, 0.2, 3));
  QueryResult r;
  const std::vector<Embedding> full =
      drain(session, stream_request(triangle()), &r);
  ASSERT_GT(full.size(), 12u);

  const auto score = [](const Embedding& e) {
    double s = 0.0;
    for (VertexId v : e) s += static_cast<double>(v);
    return s;
  };

  TopKOptions opts;
  opts.k = 5;
  opts.score = score;
  QueryRequest q;
  q.pattern = triangle();
  const TopKResult got = session.top_k(q, opts);
  ASSERT_EQ(got.result.status, QueryStatus::kOk);
  EXPECT_EQ(got.result.count, full.size());
  ASSERT_EQ(got.top.size(), 5u);

  // Brute-force expectation: score everything, sort by (score desc, stream
  // rank asc), take 5.
  std::vector<ScoredEmbedding> want;
  for (std::size_t i = 0; i < full.size(); ++i)
    want.push_back({full[i], score(full[i]), i});
  std::stable_sort(want.begin(), want.end(),
                   [](const ScoredEmbedding& a, const ScoredEmbedding& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.rank < b.rank;
                   });
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got.top[i].embedding, want[i].embedding) << i;
    EXPECT_EQ(got.top[i].score, want[i].score) << i;
    EXPECT_EQ(got.top[i].rank, want[i].rank) << i;
  }

  // Constant scorer: ties resolve to the first k in stream order.
  TopKOptions flat;
  flat.k = 3;
  flat.score = [](const Embedding&) { return 1.0; };
  const TopKResult ties = session.top_k(q, flat);
  ASSERT_EQ(ties.top.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ties.top[i].embedding, full[i]) << i;
    EXPECT_EQ(ties.top[i].rank, i) << i;
  }
}

TEST(StreamTopK, FewerMatchesThanK) {
  GraphSession session(make_cycle(5));
  TopKOptions opts;
  opts.k = 100;
  opts.score = [](const Embedding& e) { return static_cast<double>(e[0]); };
  QueryRequest q;
  q.pattern = Pattern::parse("0-1");  // 5 edges, 10 embeddings
  const TopKResult got = session.top_k(q, opts);
  ASSERT_EQ(got.result.status, QueryStatus::kOk);
  EXPECT_EQ(got.top.size(), got.result.count);
  for (std::size_t i = 1; i < got.top.size(); ++i)
    EXPECT_GE(got.top[i - 1].score, got.top[i].score);
}

// ---------------------------------------------------------------------------
// Standing-query embedding deltas
// ---------------------------------------------------------------------------

TEST(StreamStanding, OnDeltaMatchesBruteForceBeforeAfterDiff) {
  GraphSession session(make_erdos_renyi(30, 0.12, 21));

  StandingQueryConfig cfg;
  cfg.pattern = triangle();
  std::vector<StandingQueryDelta> deltas;
  cfg.on_delta = [&](const StandingQueryDelta& d) { deltas.push_back(d); };
  const std::uint64_t id = session.register_standing_query(std::move(cfg));

  // Mixed batch: new edges plus a deletion, so both directions fire.
  const std::vector<Embedding> before =
      reference_embeddings(session.graph(), triangle());
  UpdateBatch batch;
  batch.insertions.emplace_back(0, 1);
  batch.insertions.emplace_back(1, 2);
  batch.insertions.emplace_back(0, 2);
  batch.deletions.emplace_back(3, 4);
  const UpdateOutcome out = session.apply_updates(std::move(batch));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(deltas.size(), 1u);

  std::vector<Embedding> after;
  {
    QueryResult r;
    after = drain(session, stream_request(triangle()), &r);
    ASSERT_EQ(r.status, QueryStatus::kOk);
    std::sort(after.begin(), after.end());
  }

  // before - retracted + added == after, as multisets.
  std::vector<Embedding> rebuilt = before;
  for (const Embedding& e : deltas[0].retracted) {
    auto it = std::find(rebuilt.begin(), rebuilt.end(), e);
    ASSERT_NE(it, rebuilt.end()) << "retracted a non-existent embedding";
    rebuilt.erase(it);
  }
  rebuilt.insert(rebuilt.end(), deltas[0].added.begin(),
                 deltas[0].added.end());
  std::sort(rebuilt.begin(), rebuilt.end());
  EXPECT_EQ(rebuilt, after);

  // added and retracted are disjoint, and the count identity holds.
  for (const Embedding& e : deltas[0].added)
    EXPECT_EQ(std::find(deltas[0].retracted.begin(),
                        deltas[0].retracted.end(), e),
              deltas[0].retracted.end());
  const auto info = session.standing_query(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->count, after.size());
}

TEST(StreamStanding, OnDeltaRequiresEmbeddingCountMode) {
  GraphSession session(make_clique(6));
  StandingQueryConfig cfg;
  cfg.pattern = triangle();
  cfg.plan.count_mode = CountMode::kUniqueSubgraphs;
  cfg.on_delta = [](const StandingQueryDelta&) {};
  EXPECT_THROW(session.register_standing_query(std::move(cfg)), check_error);
}

// ---------------------------------------------------------------------------
// Differential: the oracle's stream lane over fuzz cases
// ---------------------------------------------------------------------------

// Session teardown vs. live consumers: handles legally outlive the session.
// The destructor's shutting_down_ sweep aborts and finalizes every open
// stream, so consumer threads looping next() on their own handles must
// observe a clean terminal stream — never a crash or a read of freed
// session state. Run under TSan in CI (the tsan job's -R regex matches
// "Stream").
TEST(StreamTeardownRace, DestroyingTheSessionUnderLiveConsumersIsClean) {
  for (int round = 0; round < 8; ++round) {
    auto session = std::make_unique<GraphSession>(
        make_erdos_renyi(64, 0.25, 100 + round));
    constexpr int kConsumers = 4;
    std::vector<std::unique_ptr<EmbeddingStream>> handles;
    for (int i = 0; i < kConsumers; ++i) {
      StreamRequest req = stream_request(triangle());
      req.stream.max_buffered = 1;  // keep the producer handing off slowly
      handles.push_back(session->open_stream(std::move(req)));
    }
    std::vector<std::thread> consumers;
    consumers.reserve(kConsumers);
    for (int i = 0; i < kConsumers; ++i) {
      consumers.emplace_back([&handles, i] {
        Embedding e;
        while (handles[i]->next(&e)) {
        }
        // Either the stream drained normally or the sweep cancelled it;
        // both are terminal, and result() must be safe after teardown.
        const QueryResult r = handles[i]->result();
        STM_CHECK(r.status == QueryStatus::kOk ||
                  r.status == QueryStatus::kCancelled);
      });
    }
    session.reset();  // race the sweep against the consumers
    for (std::thread& t : consumers) t.join();
  }
}

TEST(StreamDifferential, OracleStreamLaneAgreesOnFuzzCases) {
  harness::WorkloadOptions wopts;
  wopts.max_vertices = 40;
  harness::OracleOptions oopts;
  // Both are covered by their own differential suites.
  oopts.skip = {harness::EngineKind::kIncremental, harness::EngineKind::kSharded};
  int lane_ran = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const harness::TestCase c = harness::random_case(seed, wopts);
    const harness::OracleReport report = harness::run_oracle(c, oopts);
    EXPECT_TRUE(report.agreed)
        << harness::describe(c) << "\n" << report.describe();
    for (const harness::EngineCount& e : report.counts)
      if (e.engine == harness::EngineKind::kStream) ++lane_ran;
  }
  EXPECT_GT(lane_ran, 20) << "stream lane skipped too often to be meaningful";
}

}  // namespace
}  // namespace stm
