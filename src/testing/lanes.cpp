#include "testing/lanes.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string_view>
#include <utility>

#include "baselines/reference.hpp"
#include "core/engine.hpp"
#include "core/host_engine.hpp"
#include "core/recursive.hpp"
#include "dist/sharded.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "mqo/evaluator.hpp"
#include "mqo/pattern_index.hpp"
#include "pattern/matching_order.hpp"
#include "service/service.hpp"
#include "service/stream.hpp"
#include "setops/simd.hpp"
#include "storage/store.hpp"
#include "stream/delta_stream.hpp"
#include "util/check.hpp"

namespace stm::harness {

namespace {

// Cost caps: a fuzz trial must stay O(engine run). The anchored lanes
// (incremental, sharded cut term, mqo trie walk) do one enumeration per
// delta or cut edge; the enumerating lanes materialize every match several
// times over.
constexpr EdgeId kAnchoredMaxEdges = 300;
constexpr EdgeId kMqoMaxEdges = 200;
constexpr std::uint64_t kEnumerateMaxMatches = 200000;
constexpr std::uint64_t kMqoCollectMaxMatches = 20000;

void fail(OracleReport& report, std::string note) {
  report.agreed = false;
  report.notes.push_back(std::move(note));
}

/// "position P (lengths A vs B)": where `got` first departs from `want`.
std::string divergence(const std::vector<Embedding>& want,
                       const std::vector<Embedding>& got) {
  std::size_t at = 0;
  while (at < want.size() && at < got.size() && want[at] == got[at]) ++at;
  return "position " + std::to_string(at) + " (lengths " +
         std::to_string(got.size()) + " vs " + std::to_string(want.size()) +
         ")";
}

/// Applies each reset (which returns whether it changed anything) in order,
/// keeping those the failure survives.
bool reset_each(TestCase& c, const FailurePredicate& fails,
                std::initializer_list<bool (*)(TestCase&)> resets) {
  bool progress = false;
  for (const auto reset : resets) {
    TestCase candidate = c;
    if (reset(candidate) && fails(candidate)) {
      c = std::move(candidate);
      progress = true;
    }
  }
  return progress;
}

/// Minimizer step of a lane whose knobs are `Fields`: all of them back to
/// their TestCase defaults (their simplest values) at once.
template <auto... Fields>
bool reset_knobs(TestCase& c, const FailurePredicate& fails) {
  static const TestCase kDefaults;
  return reset_each(c, fails, {[](TestCase& t) {
    const bool changed = ((t.*Fields != kDefaults.*Fields) || ...);
    ((t.*Fields = kDefaults.*Fields), ...);
    return changed;
  }});
}

// --- recursive / host / simt: the optimized engines on the raw CSR --------

void check_recursive(const TestCase& c, const MatchingPlan& plan,
                     OracleReport& report) {
  report.counts.push_back(
      {EngineKind::kRecursive,
       recursive_count_range(GraphView(c.graph), plan, 0,
                             c.graph.num_vertices())});
}

void check_host(const TestCase& c, const MatchingPlan& plan,
                OracleReport& report) {
  std::uint64_t host = host_match(GraphView(c.graph), plan, c.host).count;
  // Test-only sabotage (see oracle.hpp): exercises detection + minimization.
  const char* mode = std::getenv("STMATCH_FUZZ_SABOTAGE");
  if (host > 0 && mode != nullptr &&
      std::string_view(mode) == "host_off_by_one")
    ++host;
  report.counts.push_back({EngineKind::kHost, host});
}

void check_simt(const TestCase& c, const MatchingPlan& plan,
                OracleReport& report) {
  report.counts.push_back(
      {EngineKind::kSimt,
       stmatch_match(GraphView(c.graph), plan, c.simt).count});
}

bool shrink_code_motion(TestCase& c, const FailurePredicate& fails) {
  return reset_each(
      c, fails,
      {[](TestCase& t) { return !std::exchange(t.plan.code_motion, true); }});
}

bool shrink_host(TestCase& c, const FailurePredicate& fails) {
  return reset_each(
      c, fails,
      {[](TestCase& t) { return std::exchange(t.host.num_threads, 1u) != 1; },
       [](TestCase& t) { return std::exchange(t.host.chunk_size, 1u) != 1; }});
}

bool shrink_simt(TestCase& c, const FailurePredicate& fails) {
  return reset_each(
      c, fails,
      {[](TestCase& t) { return std::exchange(t.simt.device.num_blocks, 1u) != 1; },
       [](TestCase& t) {
         return std::exchange(t.simt.device.warps_per_block, 1u) != 1;
       },
       [](TestCase& t) { return std::exchange(t.simt.unroll, 1u) != 1; },
       [](TestCase& t) { return std::exchange(t.simt.chunk_size, 1u) != 1; },
       [](TestCase& t) { return std::exchange(t.simt.local_steal, false); },
       [](TestCase& t) { return std::exchange(t.simt.global_steal, false); },
       [](TestCase& t) { return std::exchange(t.simt.stop_level, 1u) != 1; },
       [](TestCase& t) { return std::exchange(t.simt.detect_level, 0u) != 0; }});
}

// --- incremental: count(∅) + Δ(whole graph) must equal the full count -----

/// The incremental path cannot express vertex-induced semantics (an
/// induced match can flip without containing a delta edge) and needs an
/// anchorable edge, i.e. a pattern of >= 2 vertices.
bool anchored_applies(const TestCase& c, EdgeId max_edges) {
  return c.plan.induced == Induced::kEdge && c.pattern.size() >= 2 &&
         c.graph.num_edges() <= max_edges;
}

bool incremental_applies(const TestCase& c, std::uint64_t) {
  return anchored_applies(c, kAnchoredMaxEdges);
}

void check_incremental(const TestCase& c, const MatchingPlan&,
                       OracleReport& report) {
  const BatchReplay replay = replay_as_one_batch(c.graph);
  const std::int64_t delta =  // an empty batch has a zero delta
      replay.applied.empty() ? 0
                             : IncrementalMatcher(c.pattern, c.plan)
                                   .count_delta(replay.from, replay.applied)
                                   .delta;
  STM_CHECK_MSG(delta >= 0, "replay over an empty base produced a negative"
                            " delta of " << delta);
  report.counts.push_back(
      {EngineKind::kIncremental, static_cast<std::uint64_t>(delta)});
}

// --- sharded: the cross-shard coordinator over the sampled partition ------

void sample_shards(Rng& rng, const WorkloadOptions&, TestCase& c) {
  static constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 8};
  c.num_shards = kShardCounts[rng.next_below(4)];
  c.shard_strategy = static_cast<dist::PartitionStrategy>(
      rng.next_below(dist::kNumPartitionStrategies));
}

bool sharded_applies(const TestCase& c, std::uint64_t) {
  // The cut-edge decomposition shares the incremental path's edge-induced
  // restriction; num_vertices > 0 is a partition precondition.
  return c.plan.induced == Induced::kEdge && c.graph.num_vertices() > 0 &&
         c.graph.num_edges() <= kAnchoredMaxEdges;
}

void check_sharded(const TestCase& c, const MatchingPlan&,
                   OracleReport& report) {
  const dist::PartitionConfig pcfg{.num_shards = c.num_shards,
                                   .strategy = c.shard_strategy};
  dist::ShardedOptions opts;  // host local engine
  opts.plan = c.plan;
  const dist::ShardedResult r =
      dist::sharded_match(c.graph, c.pattern, pcfg, opts, c.host);
  STM_CHECK_MSG(r.status == QueryStatus::kOk,
                "sharded lane failed: " << r.error);
  report.counts.push_back({EngineKind::kSharded, r.count});
}

void write_shards(std::ostream& os, const TestCase& c) {
  if (c.num_shards != 1 ||
      c.shard_strategy != dist::PartitionStrategy::kContiguous)
    os << "shards " << c.num_shards << " "
       << dist::to_string(c.shard_strategy) << "\n";
}

void read_shards(ReproReader& reader, TestCase& c) {
  reader.expect_arity(2);
  const std::uint64_t shards = reader.u64(1);
  STM_CHECK_MSG(shards >= 1 && shards <= UINT32_MAX,
                "repro: shard count out of range in \"" << reader.raw() << "\"");
  c.num_shards = static_cast<std::uint32_t>(shards);
  c.shard_strategy = dist::partition_strategy_from_string(reader.tokens()[2]);
}

void describe_shards(std::ostream& os, const TestCase& c) {
  os << " shards=" << c.num_shards << "/" << dist::to_string(c.shard_strategy);
}

// --- stream: drained embedding streams through the service layer ---------

bool stream_applies(const TestCase& c, std::uint64_t expected) {
  // Materializes every match several times over.
  return c.graph.num_vertices() > 0 && expected <= kEnumerateMaxMatches;
}

/// Opens `req`, appends every embedding to `out` and returns the result
/// (and, when asked, the resume token).
QueryResult drain(GraphSession& session, StreamRequest req,
                  std::vector<Embedding>& out, std::string* token = nullptr) {
  auto s = session.open_stream(std::move(req));
  Embedding e;
  while (s->next(&e)) out.push_back(std::move(e));
  QueryResult r = s->result();
  if (token != nullptr) *token = s->resume_token();
  return r;
}

/// For each stream engine the service's drained embedding sequence must be
/// bit-identical (the global order is a pure function of the plan), the
/// multiset must equal the brute-force reference enumeration, and a paged
/// host cursor must concatenate to the full stream with no duplicate or
/// loss. All of it runs in a session where a stream of the reversed
/// numbering of the pattern was opened first.
void check_stream(const TestCase& c, const MatchingPlan&,
                  OracleReport& report) {
  using ServiceEngine = ::stm::EngineKind;

  SessionConfig scfg;
  scfg.max_open_streams = 0;  // the lane opens its streams one at a time
  GraphSession session(Graph(c.graph), scfg);

  const auto request = [&c](ServiceEngine kind) {
    StreamRequest req;
    QueryRequest& q = req.query;
    q.pattern = c.pattern;
    q.plan = c.plan;
    q.engine = kind;
    q.host = c.host;
    q.simt = c.simt;
    // Chaos is its own suite.
    q.host.fault = FaultConfig{};
    q.simt.fault = FaultConfig{};
    return req;
  };

  // Cache a renumbered sibling's plan first, so the checks below also cover
  // the path where the case's own streams look their plan up in the cache:
  // a plan compiled for another numbering would scramble every embedding.
  {
    std::vector<std::size_t> reversal(c.pattern.size());
    for (std::size_t i = 0; i < reversal.size(); ++i)
      reversal[i] = reversal.size() - 1 - i;
    StreamRequest sibling = request(ServiceEngine::kHost);
    sibling.query.pattern = c.pattern.relabeled(reversal);
    session.open_stream(std::move(sibling))->cancel();
  }

  const ServiceEngine kinds[] = {ServiceEngine::kReference,
                                 ServiceEngine::kHost, ServiceEngine::kSimt};
  std::vector<std::vector<Embedding>> streams;
  for (const ServiceEngine kind : kinds) {
    const QueryResult r = drain(session, request(kind), streams.emplace_back());
    if (!r.ok())
      return fail(report, std::string("stream lane: ") +
                              ::stm::to_string(kind) +
                              " stream failed: " + r.error);
  }
  const std::vector<Embedding>& full = streams[0];
  report.counts.push_back(
      {EngineKind::kStream, static_cast<std::uint64_t>(full.size())});

  for (std::size_t k = 1; k < streams.size(); ++k) {
    if (streams[k] != full)
      return fail(report, "stream lane: " +
                              std::string(::stm::to_string(kinds[k])) +
                              " stream diverges from reference stream at " +
                              divergence(full, streams[k]));
  }

  // Multiset check against the brute-force enumerator (which shares no
  // candidate-set machinery with the streams). Only kEmbeddings: under
  // kUniqueSubgraphs the stream carries symmetry-broken representatives,
  // which the reference does not define in the same vertex order.
  if (c.plan.count_mode == CountMode::kEmbeddings) {
    const std::vector<std::size_t> order = matching_order(c.pattern);
    std::vector<Embedding> ref;
    std::vector<VertexId> orig(c.pattern.size());
    reference_enumerate(GraphView(c.graph), c.pattern,
                        {c.plan.induced, c.plan.count_mode},
                        [&](const std::vector<VertexId>& m) {
                          for (std::size_t i = 0; i < order.size(); ++i)
                            orig[order[i]] = m[i];
                          ref.push_back(orig);
                        });
    std::vector<Embedding> got = full;
    std::sort(ref.begin(), ref.end());
    std::sort(got.begin(), got.end());
    if (got != ref)
      return fail(report, "stream lane: streamed multiset (" +
                              std::to_string(got.size()) +
                              " embeddings) differs from the reference "
                              "enumeration (" +
                              std::to_string(ref.size()) + ")");
  }

  // Cursor check: drain the host stream again in pages; token resumption
  // must concatenate to the full stream, no duplicate, no loss.
  const std::uint64_t page = std::max<std::uint64_t>(1, (full.size() + 2) / 3);
  std::vector<Embedding> paged;
  std::string token;
  for (;;) {
    StreamRequest req = request(ServiceEngine::kHost);
    req.stream.limit = page;
    req.stream.resume_token = token;
    const std::size_t before = paged.size();
    const QueryResult r = drain(session, std::move(req), paged, &token);
    if (!r.ok())
      return fail(report, "stream lane: cursor page failed: " + r.error);
    if (token.empty()) break;
    if (paged.size() == before || paged.size() > full.size())
      return fail(report,
                  "stream lane: cursor failed to make progress (delivered " +
                      std::to_string(paged.size()) + " of " +
                      std::to_string(full.size()) +
                      " with a non-empty resume token)");
  }
  if (paged != full)
    fail(report, "stream lane: cursor pages concatenate to " +
                     std::to_string(paged.size()) +
                     " embeddings, full stream has " +
                     std::to_string(full.size()));
}

// --- storage: the engines over the sampled storage backend ---------------

void sample_storage(Rng& rng, const WorkloadOptions&, TestCase& c) {
  // Four slots, compressed twice: a three-way draw would pick another
  // backend for some seeds, and the committed .repro fixtures are
  // regenerated from their seeds byte for byte.
  static constexpr storage::Backend kBackends[] = {
      storage::Backend::kUncompressed, storage::Backend::kCompressed,
      storage::Backend::kCompressed, storage::Backend::kSpill};
  c.storage_backend = kBackends[rng.next_below(4)];
  // Spill budgets stay tiny so fuzz-sized graphs still churn the cache.
  if (c.storage_backend == storage::Backend::kSpill)
    c.storage_budget_bytes = 512ull << rng.next_below(3);
}

bool storage_applies(const TestCase& c, std::uint64_t) {
  // A raw-backend store would be byte for byte the CSR the other lanes
  // already ran on.
  return c.storage_backend != storage::Backend::kUncompressed;
}

/// Rebuilds c.graph under the sampled backend and re-runs the optimized
/// engines over the store-backed view. The backend is invisible behind the
/// GraphView seam, so every count must equal the raw-CSR count and the
/// reference enumeration must visit the same embeddings in the same order.
/// Spill runs under the sampled budget with small pages, so eviction
/// churns even on fuzz-sized graphs.
void check_storage(const TestCase& c, const MatchingPlan& plan,
                   OracleReport& report) {
  storage::StoragePolicy policy;
  policy.backend = c.storage_backend;
  if (c.storage_backend == storage::Backend::kSpill) {
    policy.memory_budget_bytes = c.storage_budget_bytes;
    policy.page_size = 256;
  }
  const auto store = storage::GraphStore::build(Graph(c.graph), policy);
  const auto lease = store->lease();
  const GraphView view = store->view();
  const std::string backend = storage::to_string(c.storage_backend);

  report.counts.push_back(
      {EngineKind::kStorage, host_match(view, plan, c.host).count});
  const std::pair<const char*, std::uint64_t> others[] = {
      {"recursive",
       recursive_count_range(view, plan, 0, c.graph.num_vertices())},
      {"simt", stmatch_match(view, plan, c.simt).count}};
  for (const auto& [engine, count] : others) {
    if (count != report.expected)
      fail(report, "storage lane: " + std::string(engine) +
                       " engine counted " + std::to_string(count) +
                       " over the " + backend + " backend, raw CSR gives " +
                       std::to_string(report.expected));
  }

  // Enumeration order, not just counts: the store must serve every neighbor
  // list identically, and the reference enumerator's visit order is a pure
  // function of those lists.
  if (report.expected > kEnumerateMaxMatches) return;
  const ReferenceOptions ref_opts{c.plan.induced, c.plan.count_mode};
  std::vector<Embedding> raw, stored;
  reference_enumerate(GraphView(c.graph), c.pattern, ref_opts,
                      [&](const std::vector<VertexId>& m) { raw.push_back(m); });
  reference_enumerate(view, c.pattern, ref_opts,
                      [&](const std::vector<VertexId>& m) {
                        stored.push_back(m);
                      });
  if (raw != stored)
    fail(report, "storage lane: enumeration over the " + backend +
                     " backend diverges from the raw CSR at " +
                     divergence(raw, stored));
}

void write_storage(std::ostream& os, const TestCase& c) {
  if (c.storage_backend != storage::Backend::kUncompressed)
    os << "storage " << storage::to_string(c.storage_backend) << " "
       << c.storage_budget_bytes << "\n";
}

void read_storage(ReproReader& reader, TestCase& c) {
  reader.expect_arity(2);
  STM_CHECK_MSG(
      storage::backend_from_string(reader.tokens()[1], c.storage_backend),
      "repro: unknown storage backend in \"" << reader.raw() << "\"");
  c.storage_budget_bytes = reader.u64(2);
}

void describe_storage(std::ostream& os, const TestCase& c) {
  os << " storage=" << storage::to_string(c.storage_backend);
  if (c.storage_backend == storage::Backend::kSpill)
    os << "/" << c.storage_budget_bytes << "B";
}

// --- isa: the whole oracle under one pinned SIMD kernel table ------------

void sample_isa(Rng& rng, const WorkloadOptions&, TestCase& c) {
  // Uniform over every pin regardless of what this machine supports, so
  // generation stays machine-independent.
  c.forced_isa = static_cast<IsaPin>(rng.next_below(kNumIsaPins));
}

/// Every other lane's agreement check doubles as a SIMD-vs-scalar
/// bit-exactness proof on whole-query counts. A level this build or CPU
/// lacks, and the retired sse42 slot, degrade to the auto dispatch.
std::shared_ptr<void> isa_scope(const TestCase& c) {
  simd::IsaChoice choice = simd::IsaChoice::kAuto;
  if (c.forced_isa == IsaPin::kScalar) choice = simd::IsaChoice::kScalar;
  if (c.forced_isa == IsaPin::kAvx2 &&
      simd::is_supported(simd::IsaLevel::kAvx2))
    choice = simd::IsaChoice::kAvx2;
  return std::make_shared<simd::ScopedForceIsa>(choice);
}

void write_isa(std::ostream& os, const TestCase& c) {
  if (c.forced_isa != IsaPin::kAuto)
    os << "isa " << to_string(c.forced_isa) << "\n";
}

void read_isa(ReproReader& reader, TestCase& c) {
  reader.expect_arity(1);
  for (std::size_t p = 0; p < kNumIsaPins; ++p) {
    if (reader.tokens()[1] == to_string(static_cast<IsaPin>(p))) {
      c.forced_isa = static_cast<IsaPin>(p);
      return;
    }
  }
  STM_CHECK_MSG(false, "repro: unknown isa choice in \"" << reader.raw()
                                                          << "\"");
}

void describe_isa(std::ostream& os, const TestCase& c) {
  if (c.forced_isa != IsaPin::kAuto)
    os << " isa=" << to_string(c.forced_isa);
}

// --- mqo: the shared-prefix standing-query index vs per-pattern matchers --

constexpr PatternKeys kMqoPatternKeys = {"mq", "mqe", "mqlabels"};

/// 0-3 extra standing patterns: duplicates of the case pattern stress
/// canonical grouping, the prism / K_{3,3} pair stresses deep shared
/// prefixes that must still diverge, fresh samples stress arbitrary tries.
void sample_mqo(Rng& rng, const WorkloadOptions& opts, TestCase& c) {
  const std::size_t extras = rng.next_below(4);
  for (std::size_t i = 0; i < extras; ++i) {
    switch (rng.next_below(4)) {
      case 0: {  // canonical-isomorphic relabeling of the case pattern
        std::vector<std::size_t> perm(c.pattern.size());
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        for (std::size_t v = perm.size(); v > 1; --v)
          std::swap(perm[v - 1], perm[rng.next_below(v)]);
        c.mqo_patterns.push_back(c.pattern.relabeled(perm));
        break;
      }
      case 1:
        c.mqo_patterns.push_back(
            Pattern::parse("0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5"));  // prism
        break;
      case 2:
        c.mqo_patterns.push_back(Pattern::parse(
            "0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5"));  // K_{3,3}
        break;
      default:
        c.mqo_patterns.push_back(
            label_for_graph(rng, c.graph, random_pattern(rng, opts)));
        break;
    }
  }
}

bool mqo_applies(const TestCase& c, std::uint64_t) {
  return anchored_applies(c, kMqoMaxEdges);
}

/// The case pattern plus its mqo_patterns registered in one PatternIndex
/// and evaluated in a single trie pass over the one-batch replay. Each
/// registration's indexed delta must equal its own IncrementalMatcher's
/// delta and the brute-force count of the full graph; registrations cheap
/// enough to collect must reproduce DeltaStreamer's embedding lists bit for
/// bit. Then every edge is deleted again as one batch, which must negate
/// each delta and retract exactly the embeddings the insertions added. The
/// lane votes with the case pattern's indexed count.
void check_mqo(const TestCase& c, const MatchingPlan&, OracleReport& report) {
  std::vector<Pattern> patterns = {c.pattern};
  patterns.insert(patterns.end(), c.mqo_patterns.begin(),
                  c.mqo_patterns.end());

  // Per-registration ground truth first: it also decides which
  // registrations are cheap enough to collect embeddings for.
  std::vector<std::uint64_t> expected;
  std::vector<bool> collect;
  mqo::PatternIndex index;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    expected.push_back(reference_count(GraphView(c.graph), patterns[i],
                                       {c.plan.induced, c.plan.count_mode}));
    collect.push_back(c.plan.count_mode == CountMode::kEmbeddings &&
                      expected.back() <= kMqoCollectMaxMatches);
    index.add(i + 1, patterns[i], c.plan, collect[i]);
  }

  const auto [from, to, applied] = replay_as_one_batch(c.graph);
  const mqo::MultiQueryEvaluator evaluator(index);
  const mqo::EvalResult res = evaluator.evaluate(*from, *to, applied);
  MutableGraph full(c.graph);
  UpdateBatch teardown;
  teardown.deletions = edge_list(c.graph);
  const auto before = full.snapshot();
  const ApplyResult removed = full.apply(teardown);
  const mqo::EvalResult undo =
      evaluator.evaluate(*before, *removed.snapshot, removed.applied);

  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const mqo::QueryDelta qd = index.project(i + 1, res);
    const std::string who = "mqo lane: registration " + std::to_string(i) +
                            " (" + patterns[i].to_string() + ")";
    if (qd.delta < 0 || static_cast<std::uint64_t>(qd.delta) != expected[i]) {
      fail(report, who + " indexed delta " + std::to_string(qd.delta) +
                       " != reference count " + std::to_string(expected[i]));
      continue;
    }
    const std::int64_t loop =
        applied.empty() ? 0
                        : IncrementalMatcher(patterns[i], c.plan)
                              .count_delta(from, applied).delta;
    if (qd.delta != loop) {
      fail(report, who + " indexed delta " + std::to_string(qd.delta) +
                       " != per-pattern delta " + std::to_string(loop));
      continue;
    }
    const mqo::QueryDelta dd = index.project(i + 1, undo);
    if (dd.delta != -qd.delta) {
      fail(report, who + " deleting every edge gives delta " +
                       std::to_string(dd.delta) + ", inserting them " +
                       std::to_string(qd.delta));
      continue;
    }
    if (!collect[i]) continue;
    if (dd.retracted != qd.added || !dd.added.empty()) {
      fail(report, who + " deleting every edge retracts " +
                       std::to_string(dd.retracted.size()) + " and adds " +
                       std::to_string(dd.added.size()) +
                       " embeddings, inserting them added " +
                       std::to_string(qd.added.size()));
      continue;
    }
    stream::DeltaBatch sb;
    if (!applied.empty())
      sb = stream::DeltaStreamer(patterns[i], c.plan).delta(from, applied);
    if (qd.added != sb.added || qd.retracted != sb.retracted) {
      fail(report, who + " collected " + std::to_string(qd.added.size()) +
                       "+/" + std::to_string(qd.retracted.size()) +
                       "- embeddings, DeltaStreamer has " +
                       std::to_string(sb.added.size()) + "+/" +
                       std::to_string(sb.retracted.size()) + "-");
    }
  }

  const std::int64_t own = index.project(1, res).delta;
  report.counts.push_back(
      {EngineKind::kMqo,
       own >= 0 ? static_cast<std::uint64_t>(own) : ~std::uint64_t{0}});
}

/// Drops every extra standing pattern at once, then one at a time, keeping
/// only what the failure needs.
bool shrink_mqo(TestCase& c, const FailurePredicate& fails) {
  if (reset_knobs<&TestCase::mqo_patterns>(c, fails)) return true;
  bool progress = false;
  for (std::size_t i = 0; i < c.mqo_patterns.size();) {
    TestCase candidate = c;
    candidate.mqo_patterns.erase(candidate.mqo_patterns.begin() +
                                 static_cast<std::ptrdiff_t>(i));
    if (fails(candidate)) {
      c = std::move(candidate);
      progress = true;
      i = 0;
    } else {
      ++i;
    }
  }
  return progress;
}

void write_mqo(std::ostream& os, const TestCase& c) {
  if (c.mqo_patterns.empty()) return;
  os << "mqo " << c.mqo_patterns.size() << "\n";
  for (const Pattern& p : c.mqo_patterns) write_pattern(os, kMqoPatternKeys, p);
}

void read_mqo(ReproReader& reader, TestCase& c) {
  reader.expect_arity(1);
  const std::uint64_t count = reader.u64(1);
  for (std::uint64_t k = 0; k < count; ++k)
    c.mqo_patterns.push_back(read_pattern(reader, kMqoPatternKeys, 2));
}

void describe_mqo(std::ostream& os, const TestCase& c) {
  if (!c.mqo_patterns.empty()) os << " mqo=" << c.mqo_patterns.size();
}

// The table, in vote order. Salts are frozen: changing one changes the case
// every seed generates. The storage reset runs near the end (a failure that
// survives on the raw CSR is an engine bug, and the repro should say so);
// the ISA reset runs last (a failure that only reproduces under a pinned
// kernel table is exactly the bit-exactness break that lane hunts).
const Lane kLanes[] = {
    {.name = "recursive", .vote = EngineKind::kRecursive, .rank = 3,
     .check = check_recursive, .shrink = shrink_code_motion},
    {.name = "host", .vote = EngineKind::kHost, .rank = 2,
     .check = check_host, .shrink = shrink_host},
    {.name = "simt", .vote = EngineKind::kSimt, .rank = 1,
     .check = check_simt, .shrink = shrink_simt},
    {.name = "incremental", .vote = EngineKind::kIncremental, .rank = 4,
     .applies = incremental_applies, .check = check_incremental},
    {.name = "sharded", .vote = EngineKind::kSharded, .rank = 5,
     .salt = 0x9e3779b97f4a7c15ULL, .sample = sample_shards,
     .applies = sharded_applies, .check = check_sharded,
     .shrink = reset_knobs<&TestCase::num_shards, &TestCase::shard_strategy>,
     .section = "shards", .write = write_shards,
     .read = read_shards, .describe = describe_shards},
    {.name = "stream", .vote = EngineKind::kStream, .rank = 6,
     .applies = stream_applies, .check = check_stream},
    {.name = "storage", .vote = EngineKind::kStorage, .rank = 7,
     .salt = 0xc2b2ae3d27d4eb4fULL, .sample = sample_storage,
     .applies = storage_applies, .check = check_storage,
     .shrink = reset_knobs<&TestCase::storage_backend,
                           &TestCase::storage_budget_bytes>,
     .section = "storage", .write = write_storage,
     .read = read_storage, .describe = describe_storage},
    {.name = "isa", .rank = 8, .salt = 0x165667b19e3779f9ULL,
     .sample = sample_isa, .scope = isa_scope,
     .shrink = reset_knobs<&TestCase::forced_isa>,
     .section = "isa", .write = write_isa, .read = read_isa,
     .describe = describe_isa},
    {.name = "mqo", .vote = EngineKind::kMqo, .rank = 0,
     .salt = 0x94d049bb133111ebULL, .sample = sample_mqo,
     .applies = mqo_applies, .check = check_mqo, .shrink = shrink_mqo,
     .section = "mqo", .write = write_mqo, .read = read_mqo,
     .describe = describe_mqo},
};

}  // namespace

std::span<const Lane> lanes() { return kLanes; }

const std::vector<const Lane*>& lanes_by_rank() {
  static const std::vector<const Lane*> sorted = [] {
    std::vector<const Lane*> v;
    for (const Lane& lane : kLanes) v.push_back(&lane);
    std::sort(v.begin(), v.end(),
              [](const Lane* a, const Lane* b) { return a->rank < b->rank; });
    return v;
  }();
  return sorted;
}

}  // namespace stm::harness
