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
#include "graph/labeling.hpp"
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

// Field values a token parser must not wrap: 2^32 + 2 truncates to vertex 2
// and 2^64 + 1 overflows to 1.
TEST(StreamTokens, OutOfRangeFieldsAreMalformed) {
  GraphSession session(make_erdos_renyi(40, 0.2, 3));
  StreamRequest req = stream_request(triangle());
  req.stream.limit = 3;
  QueryResult r;
  std::string token;
  drain(session, req, &r, &token);
  ASSERT_FALSE(token.empty());
  // "<epoch>.<fingerprint>" of a genuine token: only the position is forged.
  const std::size_t tag = token.find('.');
  const std::size_t fp_end = token.find('.', token.find('.', tag + 1) + 1);
  const std::string stamp = token.substr(tag + 1, fp_end - tag - 1);
  ASSERT_EQ(stamp.substr(0, 2), "0.");

  const std::string fp = stamp.substr(2);
  for (const std::string& bad : {
           "stm1." + stamp + ".4294967298.10.30",            // v0 >= 2^32
           "stm1." + stamp + ".3.18446744073709551617.30",   // skip > 2^64-1
           "stm1." + stamp + ".40.1.1",                      // v0 == n
           "stm1." + stamp + ".0.1000000.5",                 // skip past v0
           "stm1.18446744073709551616." + fp + ".0.1.1",     // epoch > 2^64-1
           "stm2." + stamp + ".3.4294967298.1.2",            // u_0 >= 2^32
           "stm2." + stamp + ".3.0.40.1",                    // u_1 == n
           "stm2." + stamp + ".18446744073709551616.0.1.2",  // total overflow
           "stm2.0.1" + fp + ".3",                           // 17 hex digits
           "stm2." + stamp + ".3.0.1",                       // 2 of 3 vertices
       }) {
    StreamRequest rest = stream_request(triangle());
    rest.stream.resume_token = bad;
    const std::vector<Embedding> got = drain(session, rest, &r);
    EXPECT_TRUE(got.empty()) << bad;
    EXPECT_EQ(r.status, QueryStatus::kInvalidArgument) << bad;
    EXPECT_NE(r.error.find("malformed resume token"), std::string::npos)
        << bad << ": " << r.error;
  }
}

// Tokens in the earlier "stm1.<epoch>.<fp>.<v0>.<skip>.<total>" layout, as
// minted by that layout's implementation for this graph (host engine, one
// thread): each names the position after `position` embeddings, and still
// resumes there, on a whole drain and on a page whose own token continues.
TEST(StreamTokens, LegacyStm1TokensResume) {
  struct Legacy {
    const char* pattern;
    std::size_t position;
    const char* token;
  };
  const Legacy kTokens[] = {
      {"0-1,1-2,2-0", 0, "stm1.0.df6fc5cc4500f662.0.0.0"},
      {"0-1,1-2,2-0", 1, "stm1.0.df6fc5cc4500f662.0.1.1"},
      {"0-1,1-2,2-0", 9, "stm1.0.df6fc5cc4500f662.0.9.9"},
      {"0-1,1-2,2-0", 117, "stm1.0.df6fc5cc4500f662.3.33.117"},
      {"0-1,1-2,2-0", 150, "stm1.0.df6fc5cc4500f662.6.2.150"},
      {"0-1,1-2,2-0", 233, "stm1.0.df6fc5cc4500f662.29.3.233"},
      {"0-1,1-2,2-0", 234, "stm1.0.df6fc5cc4500f662.29.4.234"},
      {"0-1,1-2,2-3,3-0", 0, "stm1.0.4cd600cee098e467.0.0.0"},
      {"0-1,1-2,2-3,3-0", 7, "stm1.0.4cd600cee098e467.0.7.7"},
      {"0-1,1-2,2-3,3-0", 150, "stm1.0.4cd600cee098e467.1.56.150"},
      {"0-1,1-2,2-3,3-0", 684, "stm1.0.4cd600cee098e467.4.62.684"},
      {"0-1,1-2,2-3,3-0", 1367, "stm1.0.4cd600cee098e467.29.19.1367"},
  };
  GraphSession session(make_barabasi_albert(30, 3, 7));
  for (const Legacy& t : kTokens) {
    const Pattern p = Pattern::parse(t.pattern);
    QueryResult r;
    const std::vector<Embedding> full = drain(session, stream_request(p), &r);
    ASSERT_LE(t.position, full.size()) << t.token;
    const std::vector<Embedding> suffix(
        full.begin() + static_cast<std::ptrdiff_t>(t.position), full.end());

    StreamRequest rest = stream_request(p);
    rest.stream.resume_token = t.token;
    EXPECT_EQ(drain(session, rest, &r), suffix) << t.token;
    EXPECT_EQ(r.status, QueryStatus::kOk) << t.token << ": " << r.error;

    StreamRequest page = stream_request(p, EngineKind::kSimt);
    page.stream.resume_token = t.token;
    page.stream.limit = 5;
    std::string token;
    std::vector<Embedding> paged = drain(session, page, &r, &token);
    ASSERT_EQ(r.status, QueryStatus::kOk) << t.token << ": " << r.error;
    if (!token.empty()) {
      StreamRequest tail = stream_request(p);
      tail.stream.resume_token = token;
      const std::vector<Embedding> more = drain(session, tail, &r);
      paged.insert(paged.end(), more.begin(), more.end());
    }
    EXPECT_EQ(paged, suffix) << t.token;
  }
}

// ---------------------------------------------------------------------------
// Resume positions: the seek walk and the head bucket
// ---------------------------------------------------------------------------

/// A small power-law graph (its early vertices are hubs) with two labels, so
/// one session serves the unlabeled and the labeled shapes.
Graph hub_graph() {
  return with_random_labels(make_barabasi_albert(22, 2, 7), 2, 3);
}

struct Shape {
  const char* name;
  Pattern pattern;
  PlanOptions plan;
};

std::vector<Shape> resume_shapes() {
  PlanOptions induced;
  induced.induced = Induced::kVertex;
  return {{"triangle", triangle(), {}},
          {"4-cycle", square(), {}},
          {"induced 4-cycle", square(), induced},
          {"labeled tailed triangle",
           Pattern::parse("0-1,1-2,2-0,2-3").with_labels({0, 1, 0, 1}),
           {}}};
}

struct ResumeLane {
  const char* name;
  EngineKind engine;
  std::size_t threads;
};

constexpr ResumeLane kResumeLanes[] = {
    {"host x1", EngineKind::kHost, 1},
    {"host x3", EngineKind::kHost, 3},
    {"simt", EngineKind::kSimt, 0},
    {"reference", EngineKind::kReference, 0}};

StreamRequest resume_request(const Shape& shape, const ResumeLane& lane,
                             std::uint64_t limit, std::string token) {
  StreamRequest req = stream_request(shape.pattern, lane.engine);
  req.query.plan = shape.plan;
  req.query.host.num_threads = lane.threads;
  req.stream.limit = limit;
  req.stream.resume_token = std::move(token);
  return req;
}

std::vector<Embedding> slice(const std::vector<Embedding>& v, std::size_t from,
                             std::size_t to) {
  to = std::min(to, v.size());
  return {v.begin() + static_cast<std::ptrdiff_t>(from),
          v.begin() + static_cast<std::ptrdiff_t>(to)};
}

/// [begin, end) of the largest outer-vertex bucket of a drained stream.
std::pair<std::size_t, std::size_t> hub_bucket(const std::vector<Embedding>& s,
                                               const Pattern& p) {
  const std::size_t pos0 = matching_order(p)[0];
  std::pair<std::size_t, std::size_t> best{0, 0};
  for (std::size_t b = 0, e = 0; b < s.size(); b = e) {
    e = b;
    while (e < s.size() && s[e][pos0] == s[b][pos0]) ++e;
    if (e - b > best.second - best.first) best = {b, e};
  }
  return best;
}

TEST(StreamCursor, ResumeFromEveryPosition) {
  GraphSession session(hub_graph());
  for (const Shape& shape : resume_shapes()) {
    QueryResult r;
    const std::vector<Embedding> full = drain(
        session, resume_request(shape, kResumeLanes[3], 0, ""), &r);
    ASSERT_EQ(r.status, QueryStatus::kOk) << shape.name;
    const auto [hub_begin, hub_end] = hub_bucket(full, shape.pattern);
    ASSERT_GE(hub_end - hub_begin, 6u) << shape.name << ": no hub bucket";
    ASSERT_LT(full.size(), 300u) << shape.name << ": keep the sweep small";

    for (const ResumeLane& lane : kResumeLanes) {
      const std::string where =
          std::string(shape.name) + " on " + lane.name + " at ";
      // tokens[p] names position p; one-embedding pages mint the chain.
      std::vector<std::string> tokens{""};
      for (std::size_t p = 0; p < full.size(); ++p) {
        std::string token;
        EXPECT_EQ(drain(session, resume_request(shape, lane, 1, tokens[p]),
                        &r, &token),
                  slice(full, p, p + 1))
            << where << p;
        ASSERT_EQ(r.status, QueryStatus::kOk) << where << p << r.error;
        ASSERT_FALSE(token.empty()) << where << p;
        tokens.push_back(std::move(token));
      }
      for (std::size_t p = 0; p <= full.size(); ++p) {
        std::string token;
        EXPECT_EQ(drain(session, resume_request(shape, lane, 3, tokens[p]),
                        &r, &token),
                  slice(full, p, p + 3))
            << where << p;
        EXPECT_EQ(r.status, QueryStatus::kOk) << where << p << r.error;
        // A page cut by its limit cannot know it took the last embedding.
        EXPECT_EQ(token.empty(), p + 3 > full.size()) << where << p;
      }

      // Inside the hub's bucket: a resumed page cancelled after its first
      // embedding, and one cancelled before it, keep their position.
      const std::size_t p = hub_begin + (hub_end - hub_begin) / 2;
      auto s = session.open_stream(resume_request(shape, lane, 0, tokens[p]));
      std::vector<Embedding> got;
      Embedding e;
      ASSERT_TRUE(s->next(&e)) << where << p;
      got.push_back(e);
      s->cancel();
      while (s->next(&e)) got.push_back(e);
      EXPECT_EQ(s->result().status, QueryStatus::kCancelled) << where << p;
      const std::vector<Embedding> tail = drain(
          session, resume_request(shape, lane, 0, s->resume_token()), &r);
      got.insert(got.end(), tail.begin(), tail.end());
      EXPECT_EQ(got, slice(full, p, full.size())) << where << p;

      auto idle =
          session.open_stream(resume_request(shape, lane, 0, tokens[p]));
      idle->cancel();
      EXPECT_EQ(idle->resume_token(), tokens[p]) << where << p;
    }
  }
}

// A resumed drain forwards only what follows its position: the seek walk
// skips the delivered part of the hub's subtree instead of enumerating it
// for the consumer to drop.
TEST(StreamCursor, ResumedDrainForwardsOnlyTheRemainder) {
  GraphSession session(hub_graph());
  const Shape shape = resume_shapes()[1];
  QueryResult r;
  const std::vector<Embedding> full =
      drain(session, resume_request(shape, kResumeLanes[3], 0, ""), &r);
  ASSERT_EQ(r.status, QueryStatus::kOk);
  const auto [hub_begin, hub_end] = hub_bucket(full, shape.pattern);
  const std::size_t position = hub_begin + (hub_end - hub_begin) / 2;
  ASSERT_GT(position, hub_begin);

  std::string token;
  drain(session, resume_request(shape, kResumeLanes[0], position, ""), &r,
        &token);
  ASSERT_FALSE(token.empty());
  Counter& emitted = session.metrics().counter("stream_emitted_total");
  for (const ResumeLane& lane : kResumeLanes) {
    const std::uint64_t before = emitted.value();
    EXPECT_EQ(drain(session, resume_request(shape, lane, 0, token), &r),
              slice(full, position, full.size()))
        << lane.name;
    EXPECT_EQ(r.status, QueryStatus::kOk) << lane.name;
    EXPECT_EQ(emitted.value() - before, full.size() - position) << lane.name;
  }
}

// A plan fixes which pattern vertex each stack level matches, and a stream
// maps its embeddings back through its own pattern's matching order. So a
// renumbering that reorders differently (here the 5-path's numbering
// 3-1,1-0,0-2,2-4) must compile its own plan: after its stream has run, the
// path's stream, a token minted from it and its top-k read exactly what a
// session that never saw the sibling reads.
TEST(StreamCursor, RenumberedSiblingSharesNoPlan) {
  const Graph g = make_barabasi_albert(120, 3, 7);
  const Pattern path = Pattern::parse("0-1,1-2,2-3,3-4");
  const Pattern sibling = Pattern::parse("3-1,1-0,0-2,2-4");
  ASSERT_NE(reorder_for_matching(sibling).to_string(),
            reorder_for_matching(path).to_string());
  constexpr std::uint64_t kPage = 1000;
  const auto is_path = [&g](const Embedding& e) {
    for (std::size_t i = 0; i + 1 < e.size(); ++i)
      if (!g.has_edge(e[i], e[i + 1])) return false;
    return true;
  };
  const auto score = [](const Embedding& e) {
    double s = 0.0;
    for (std::size_t i = 0; i < e.size(); ++i)
      s += static_cast<double>((i + 1) * e[i]);
    return s;
  };

  for (const EngineKind engine :
       {EngineKind::kHost, EngineKind::kSimt, EngineKind::kReference}) {
    SCOPED_TRACE(to_string(engine));
    GraphSession fresh{Graph(g)};
    QueryResult r;
    const std::vector<Embedding> want =
        drain(fresh, stream_request(path, engine), &r);
    ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
    ASSERT_GT(want.size(), kPage);

    GraphSession session{Graph(g)};
    drain(session, stream_request(sibling, engine), &r);
    ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
    {
      const std::vector<Embedding> got =
          drain(session, stream_request(path, engine), &r);
      EXPECT_EQ(r.status, QueryStatus::kOk) << r.error;
      EXPECT_EQ(static_cast<std::size_t>(
                    std::count_if(got.begin(), got.end(), is_path)),
                got.size());
      EXPECT_EQ(got.size(), want.size());
      EXPECT_TRUE(got == want) << "the stream diverges from a fresh session's";
    }

    StreamRequest page = stream_request(path, engine);
    page.stream.limit = kPage;
    std::string token;
    drain(session, page, &r, &token);
    ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
    ASSERT_FALSE(token.empty());
    {
      GraphSession later{Graph(g)};
      StreamRequest rest = stream_request(path, engine);
      rest.stream.resume_token = token;
      const std::vector<Embedding> tail = drain(later, rest, &r);
      EXPECT_EQ(r.status, QueryStatus::kOk) << r.error;
      EXPECT_EQ(tail.size(), want.size() - kPage);
      EXPECT_TRUE(tail == slice(want, kPage, want.size()))
          << "the resumed page is not the fresh stream's suffix";
    }

    TopKOptions opts;
    opts.k = 5;
    opts.score = score;
    QueryRequest q;
    q.pattern = path;
    q.engine = engine;
    const TopKResult expected = fresh.top_k(q, opts);
    const TopKResult got = session.top_k(q, opts);
    ASSERT_EQ(got.result.status, QueryStatus::kOk) << got.result.error;
    ASSERT_EQ(got.top.size(), expected.top.size());
    for (std::size_t i = 0; i < got.top.size(); ++i) {
      EXPECT_TRUE(is_path(got.top[i].embedding)) << i;
      EXPECT_EQ(got.top[i].embedding, expected.top[i].embedding) << i;
      EXPECT_EQ(got.top[i].rank, expected.top[i].rank) << i;
    }
  }
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
