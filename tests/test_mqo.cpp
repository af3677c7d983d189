// Tests for the multi-query standing-query index (src/mqo/, DESIGN.md §16):
// plan-trie construction and pruning, canonical-group deduplication,
// registration churn, and the randomized differential proving indexed
// deltas == per-pattern deltas == full re-enumeration — including the
// prism vs K_{3,3} near-collider, the walk's ancestor-list reuse and
// counting leaves, embedding-level stream parity, and a ledger of the
// walk's exact counters over update_standing's shapes. The session serves
// standing queries only through the index, so the MqoSession cases check
// it against the per-pattern pipeline directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/reference.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "mqo/evaluator.hpp"
#include "mqo/pattern_index.hpp"
#include "mqo/plan_trie.hpp"
#include "pattern/canonical.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/pattern.hpp"
#include "pattern/queries.hpp"
#include "service/service.hpp"
#include "stream/delta_stream.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

const char* const kTriangle = "0-1,1-2,2-0";
const char* const kPath3 = "0-1,1-2";
const char* const kFourClique = "0-1,0-2,0-3,1-2,1-3,2-3";
const char* const kPrism = "0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5";
const char* const kK33 = "0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5";
const char* const kFiveClique = "0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4";
const char* const kDiamond = "0-1,1-2,2-0,1-3,2-3";
const char* const kTailedTriangle = "0-1,1-2,2-0,2-3";

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

/// One balanced churn batch: `half` deletions of present edges and `half`
/// insertions of absent ones, every endpoint a random neighbor of a random
/// vertex (so drawn by degree, as update_standing's feed draws them).
UpdateBatch churn_batch(const GraphSnapshot& snap, Rng& rng,
                        std::size_t half) {
  const GraphView g = snap.view();
  const auto random_arc = [&] {
    for (;;) {
      const auto u = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto nbrs = g.neighbors(u);
      if (!nbrs.empty()) return std::pair(u, nbrs[rng.next_below(nbrs.size())]);
    }
  };
  std::set<std::pair<VertexId, VertexId>> used;
  UpdateBatch batch;
  while (batch.deletions.size() < half) {
    const auto [u, v] = random_arc();
    const auto e = std::minmax(u, v);
    if (used.insert(e).second) batch.deletions.push_back(e);
  }
  while (batch.insertions.size() < half) {
    const VertexId u = random_arc().second, v = random_arc().second;
    if (u == v || g.has_edge(u, v)) continue;
    const auto e = std::minmax(u, v);
    if (used.insert(e).second) batch.insertions.push_back(e);
  }
  return batch;
}

TEST(MqoTrie, AnchoredPathIsOrientationInvariant) {
  for (const char* s : {kTriangle, kPath3, kFourClique, kPrism, kK33}) {
    const Pattern p = Pattern::parse(s);
    for (std::size_t a = 0; a < p.size(); ++a) {
      for (std::size_t b = a + 1; b < p.size(); ++b) {
        if (!p.has_edge(a, b)) continue;
        const mqo::AnchoredPath ab = mqo::anchored_path(p, a, b);
        const mqo::AnchoredPath ba = mqo::anchored_path(p, b, a);
        // The step sequence is orientation-invariant (lex-smaller of the
        // two orientations). The perms may differ when the orientations
        // tie — then an automorphism swaps the anchor and both perms are
        // valid images — but each must reconstruct the pattern: position
        // i's mask encodes exactly the pattern edges into the prefix.
        EXPECT_EQ(ab.steps, ba.steps) << s << " anchor " << a << "," << b;
        EXPECT_EQ(ab.steps.size(), p.size());
        for (const mqo::AnchoredPath& path : {ab, ba}) {
          for (std::size_t i = 0; i < p.size(); ++i) {
            for (std::size_t j = 0; j < i; ++j) {
              EXPECT_EQ((path.steps[i].adj_mask >> j) & 1u,
                        p.has_edge(path.perm[i], path.perm[j]) ? 1u : 0u)
                  << s << " anchor " << a << "," << b;
            }
          }
        }
      }
    }
  }
}

TEST(MqoTrie, InsertRemoveRoundTripsToEmpty) {
  mqo::PlanTrie trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.stats().nodes, 0u);
  EXPECT_EQ(trie.stats().shared_prefix_ratio, 0.0);

  const Pattern tri = Pattern::parse(kTriangle);
  std::vector<mqo::TrieNode*> nodes;
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = a + 1; b < 3; ++b) {
      nodes.push_back(trie.insert(mqo::anchored_path(tri, a, b), 0));
    }
  }
  // The triangle's three anchored paths are identical: one chain of three
  // nodes, three terminals on the deepest node.
  EXPECT_EQ(nodes[0], nodes[1]);
  EXPECT_EQ(nodes[1], nodes[2]);
  mqo::TrieStats st = trie.stats();
  EXPECT_EQ(st.nodes, 3u);
  EXPECT_EQ(st.terminals, 3u);
  EXPECT_EQ(st.max_depth, 3u);
  EXPECT_EQ(st.plan_positions, 9u);
  EXPECT_DOUBLE_EQ(st.shared_prefix_ratio, 1.0 - 3.0 / 9.0);
  EXPECT_NE(trie.describe().find("terminals=3"), std::string::npos);

  trie.remove_terminals(nodes[0], 0);
  EXPECT_TRUE(trie.empty());
  st = trie.stats();
  EXPECT_EQ(st.nodes, 0u);
  EXPECT_EQ(st.terminals, 0u);
}

TEST(MqoTrie, TrianglePrefixSharedWithFourClique) {
  mqo::PatternIndex index;
  index.add(1, Pattern::parse(kTriangle), {}, false);
  const std::size_t tri_nodes = index.stats().trie.nodes;
  EXPECT_EQ(tri_nodes, 3u);
  index.add(2, Pattern::parse(kFourClique), {}, false);
  const mqo::TrieStats st = index.stats().trie;
  // Every anchored 4-clique order starts with a triangle, so adding the
  // clique reuses the triangle chain and appends exactly one node.
  EXPECT_EQ(st.nodes, tri_nodes + 1);
  EXPECT_EQ(st.max_depth, 4u);
  EXPECT_GT(st.shared_prefix_ratio, 0.5);
}

TEST(MqoIndex, IsomorphicRegistrationsShareOneGroup) {
  mqo::PatternIndex index;
  const Pattern tri = Pattern::parse(kTriangle);
  index.add(1, tri, {}, false);
  const mqo::TrieStats alone = index.stats().trie;
  // Relabelings of the same pattern collapse onto the same canonical group:
  // no new trie state at all.
  index.add(2, tri.relabeled({1, 2, 0}), {}, false);
  index.add(3, tri.relabeled({2, 0, 1}), {}, false);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.num_groups(), 1u);
  EXPECT_EQ(index.stats().trie.nodes, alone.nodes);
  EXPECT_EQ(index.stats().trie.terminals, alone.terminals);
  EXPECT_EQ(index.automorphisms(1), 6u);
  EXPECT_EQ(index.automorphisms(2), 6u);

  // any_member answers across relabelings; removal keeps the group alive
  // until the last member leaves.
  EXPECT_TRUE(index.any_member(tri.relabeled({2, 1, 0})).has_value());
  EXPECT_TRUE(index.remove(1));
  EXPECT_TRUE(index.remove(2));
  EXPECT_EQ(index.num_groups(), 1u);
  EXPECT_TRUE(index.remove(3));
  EXPECT_EQ(index.num_groups(), 0u);
  EXPECT_EQ(index.stats().trie.nodes, 0u);
  EXPECT_FALSE(index.remove(3));
  EXPECT_FALSE(index.any_member(tri).has_value());
}

TEST(MqoIndex, RejectsWhatAnchoredEnumerationCannotServe) {
  mqo::PatternIndex index;
  PlanOptions vertex_induced;
  vertex_induced.induced = Induced::kVertex;
  EXPECT_THROW(index.add(1, Pattern::parse(kTriangle), vertex_induced, false),
               check_error);
  EXPECT_THROW(index.add(1, Pattern(1, {}), {}, false), check_error);
  EXPECT_TRUE(index.empty());
}

TEST(MqoIndex, GroupSlotsAreReusedUnderChurn) {
  mqo::PatternIndex index;
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t base = static_cast<std::uint64_t>(round) * 10 + 1;
    index.add(base, Pattern::parse(kTriangle), {}, false);
    index.add(base + 1, Pattern::parse(kPath3), {}, false);
    index.add(base + 2, Pattern::parse(kFourClique), {}, false);
    EXPECT_LE(index.num_group_slots(), 3u) << "slots leak under churn";
    EXPECT_TRUE(index.remove(base));
    EXPECT_TRUE(index.remove(base + 1));
    EXPECT_TRUE(index.remove(base + 2));
  }
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.stats().trie.nodes, 0u);
}

/// Registers `patterns` into an index (ids 1..n, kEmbeddings; pattern i
/// collects embeddings iff collect[i]) and runs `num_batches` random batches
/// over `base`, asserting after each that every registration's indexed
/// delta equals its per-pattern IncrementalMatcher delta and cumulative full
/// re-enumeration, and a collecting registration's lists equal its
/// DeltaStreamer embedding lists.
void run_mqo_differential(const Graph& base,
                          const std::vector<Pattern>& patterns,
                          const std::vector<bool>& collect, std::uint64_t seed,
                          int num_batches, int batch_edges) {
  MutableGraph g(base);

  mqo::PatternIndex index;
  std::vector<std::unique_ptr<IncrementalMatcher>> matchers;
  std::vector<std::unique_ptr<stream::DeltaStreamer>> streamers;
  std::vector<std::int64_t> counts;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    index.add(i + 1, patterns[i], {}, collect[i]);
    matchers.push_back(std::make_unique<IncrementalMatcher>(patterns[i]));
    streamers.push_back(
        collect[i] ? std::make_unique<stream::DeltaStreamer>(patterns[i],
                                                             PlanOptions{})
                   : nullptr);
    counts.push_back(static_cast<std::int64_t>(
        reference_count(g.snapshot()->view(), patterns[i])));
  }
  const mqo::MultiQueryEvaluator evaluator(index);

  Rng rng(seed * 6151 + 7);
  for (int b = 0; b < num_batches; ++b) {
    auto from = g.snapshot();
    const ApplyResult applied = g.apply(random_batch(*from, rng, batch_edges));
    const mqo::EvalResult res =
        evaluator.evaluate(*from, *applied.snapshot, applied.applied);
    const Graph compacted = applied.snapshot->compacted();
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      const mqo::QueryDelta qd = index.project(i + 1, res);
      const DeltaMatchResult d = matchers[i]->count_delta(from, applied.applied);
      EXPECT_EQ(qd.delta, d.delta)
          << "indexed vs per-pattern, pattern " << i << " batch " << b
          << " seed " << seed;
      if (streamers[i] != nullptr) {
        stream::DeltaBatch db = streamers[i]->delta(from, applied.applied);
        EXPECT_EQ(qd.added, db.added)
            << "added embeddings, pattern " << i << " batch " << b;
        EXPECT_EQ(qd.retracted, db.retracted)
            << "retracted embeddings, pattern " << i << " batch " << b;
      }
      counts[i] += qd.delta;
      EXPECT_EQ(counts[i], static_cast<std::int64_t>(reference_count(
                               GraphView(compacted), patterns[i])))
          << "cumulative vs full, pattern " << i << " batch " << b;
    }
  }
}

/// The all-collecting differential over ER(n, density).
void run_mqo_differential(const std::vector<Pattern>& patterns,
                          std::uint64_t seed, int num_batches,
                          int batch_edges, VertexId n = 32,
                          double density = 0.12) {
  run_mqo_differential(make_erdos_renyi(n, density, seed), patterns,
                       std::vector<bool>(patterns.size(), true), seed,
                       num_batches, batch_edges);
}

TEST(MqoDifferential, MixedPatternSetMatchesPerPatternAndFull) {
  run_mqo_differential({Pattern::parse(kTriangle), Pattern::parse(kPath3),
                        Pattern::parse(kFourClique),
                        Pattern::parse("0-1,1-2,2-3"),
                        Pattern::parse("0-1,0-2,0-3")},
                       11, 6, 6);
}

TEST(MqoDifferential, CanonicalDuplicatesStayBitIdentical) {
  const Pattern tri = Pattern::parse(kTriangle);
  const Pattern square = Pattern::parse("0-1,1-2,2-3,3-0");
  run_mqo_differential({tri, tri.relabeled({1, 2, 0}), square,
                        square.relabeled({3, 1, 0, 2}),
                        tri.relabeled({2, 0, 1})},
                       23, 6, 6);
}

TEST(MqoDifferential, PrismVsK33NearCollider) {
  // Prism and K_{3,3}: both 6 vertices, 9 edges, 3-regular — canonically
  // distinct, but every anchored prefix agrees deep into the walk. The trie
  // must keep them on separate suffixes and the deltas exact.
  const Pattern prism = Pattern::parse(kPrism);
  const Pattern k33 = Pattern::parse(kK33);
  ASSERT_NE(canonical_form(prism), canonical_form(k33));
  run_mqo_differential({prism, k33, prism.relabeled({3, 4, 5, 0, 1, 2}),
                        k33.relabeled({1, 2, 0, 4, 5, 3})},
                       5, 4, 5, 20, 0.25);
}

TEST(MqoDifferential, CodeMotionReusesAncestorListsTwoLevelsDeep) {
  // q6 (K4 + pendant): position 3's mask {0,1,2} starts from position 2's
  // N(v0) ∩ N(v1). K5: position 4 starts from position 3's list, itself
  // built on position 2's. Both leaf paths: counted and collected.
  const Pattern k5 = Pattern::parse(kFiveClique);
  const Graph base = make_erdos_renyi(22, 0.5, 61);
  for (const bool collect : {false, true}) {
    run_mqo_differential(base, {query(6), k5, Pattern::parse(kFourClique)},
                         {collect, collect, collect}, 61, 4, 6);
  }
}

TEST(MqoDifferential, LabeledCliqueExtensionFiltersReusedList) {
  // The reused ancestor list is the raw intersection, unfiltered by the
  // ancestor's label, so a clique extension with a different label must
  // still check labels per candidate.
  Graph base = make_erdos_renyi(26, 0.4, 73);
  std::vector<Label> labels(base.num_vertices());
  Rng label_rng(7);
  for (auto& l : labels) l = static_cast<Label>(label_rng.next_below(3));
  const Pattern k4 = Pattern::parse(kFourClique);
  run_mqo_differential(base.with_labels(std::move(labels)),
                       {k4.with_labels({0, 1, 1, 2}),
                        k4.with_labels({0, 0, 0, 0}),
                        query(6).with_labels({0, 1, 2, 1, 0})},
                       {false, false, false}, 73, 5, 6);
}

TEST(MqoDifferential, PendantLeafOnHubSubtractsPrefixHits) {
  // A hub adjacent to every vertex: a pendant leaf hanging off it counts
  // |N(hub)| minus the prefix vertices in N(hub) — all of them here.
  const Graph er = make_erdos_renyi(40, 0.1, 83);
  GraphBuilder builder(er.num_vertices());
  for (VertexId u = 0; u < er.num_vertices(); ++u) {
    for (const VertexId v : er.neighbors(u)) builder.add_edge(u, v);
    builder.add_edge(0, u);
  }
  const Graph hub = builder.build();
  ASSERT_GE(hub.degree(0), 32u);
  run_mqo_differential(hub,
                       {Pattern::parse(kTailedTriangle), query(6),
                        Pattern::parse("0-1,0-2,0-3")},
                       {false, false, false}, 83, 5, 8);
}

TEST(MqoDifferential, CollectingLeafBesideCountedLeavesMaterializes) {
  // The triangle node carries a collecting terminal and leaf children of
  // three groups: the K4 and diamond leaves only count, the tailed
  // triangle's collect and must materialize every embedding.
  run_mqo_differential(make_erdos_renyi(30, 0.25, 97),
                       {Pattern::parse(kTriangle), Pattern::parse(kFourClique),
                        Pattern::parse(kDiamond),
                        Pattern::parse(kTailedTriangle)},
                       {true, false, false, true}, 97, 5, 6);
}

TEST(MqoDifferential, LabeledPatternsFilterExactly) {
  Graph base = make_erdos_renyi(28, 0.15, 99);
  std::vector<Label> labels(base.num_vertices());
  Rng label_rng(4242);
  for (auto& l : labels) l = static_cast<Label>(label_rng.next_below(3));
  Graph labeled = base.with_labels(std::move(labels));
  MutableGraph g(labeled);

  const Pattern tri = Pattern::parse(kTriangle);
  const std::vector<Pattern> patterns{
      tri.with_labels({0, 1, 2}), tri.with_labels({0, 1, 2}).relabeled({2, 0, 1}),
      tri.with_labels({1, 1, 1}), tri, Pattern::parse(kPath3).with_labels({0, 2, 0})};
  mqo::PatternIndex index;
  std::vector<std::unique_ptr<IncrementalMatcher>> matchers;
  std::vector<std::int64_t> counts;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    index.add(i + 1, patterns[i], {}, false);
    matchers.push_back(std::make_unique<IncrementalMatcher>(patterns[i]));
    counts.push_back(static_cast<std::int64_t>(
        reference_count(g.snapshot()->view(), patterns[i])));
  }
  const mqo::MultiQueryEvaluator evaluator(index);
  Rng rng(555);
  for (int b = 0; b < 5; ++b) {
    auto from = g.snapshot();
    const ApplyResult applied = g.apply(random_batch(*from, rng, 6));
    const mqo::EvalResult res =
        evaluator.evaluate(*from, *applied.snapshot, applied.applied);
    const Graph compacted = applied.snapshot->compacted();
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      const mqo::QueryDelta qd = index.project(i + 1, res);
      EXPECT_EQ(qd.delta, matchers[i]->count_delta(from, applied.applied).delta)
          << "pattern " << i << " batch " << b;
      counts[i] += qd.delta;
      EXPECT_EQ(counts[i], static_cast<std::int64_t>(reference_count(
                               GraphView(compacted), patterns[i])))
          << "pattern " << i << " batch " << b;
    }
  }
}

TEST(MqoDifferential, UniqueSubgraphModeDividesByAutomorphisms) {
  Graph base = make_erdos_renyi(26, 0.18, 31);
  MutableGraph g(base);
  PlanOptions unique;
  unique.count_mode = CountMode::kUniqueSubgraphs;

  const std::vector<Pattern> patterns{Pattern::parse(kTriangle),
                                      Pattern::parse(kFourClique),
                                      Pattern::parse(kPath3)};
  mqo::PatternIndex index;
  std::vector<std::unique_ptr<IncrementalMatcher>> matchers;
  std::vector<std::int64_t> counts;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    index.add(i + 1, patterns[i], unique, false);
    matchers.push_back(
        std::make_unique<IncrementalMatcher>(patterns[i], unique));
    counts.push_back(static_cast<std::int64_t>(reference_count(
        g.snapshot()->view(), patterns[i],
        {Induced::kEdge, CountMode::kUniqueSubgraphs})));
  }
  const mqo::MultiQueryEvaluator evaluator(index);
  Rng rng(808);
  for (int b = 0; b < 5; ++b) {
    auto from = g.snapshot();
    const ApplyResult applied = g.apply(random_batch(*from, rng, 6));
    const mqo::EvalResult res =
        evaluator.evaluate(*from, *applied.snapshot, applied.applied);
    const Graph compacted = applied.snapshot->compacted();
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      const mqo::QueryDelta qd = index.project(i + 1, res);
      EXPECT_EQ(qd.delta, matchers[i]->count_delta(from, applied.applied).delta);
      counts[i] += qd.delta;
      EXPECT_EQ(counts[i],
                static_cast<std::int64_t>(reference_count(
                    GraphView(compacted), patterns[i],
                    {Induced::kEdge, CountMode::kUniqueSubgraphs})))
          << "pattern " << i << " batch " << b;
    }
  }
}

TEST(MqoChurn, DeregistrationNeverPerturbsOtherQueries) {
  Graph base = make_erdos_renyi(30, 0.14, 77);
  MutableGraph g(base);
  const Pattern tri = Pattern::parse(kTriangle);
  const Pattern watched = Pattern::parse(kFourClique);

  mqo::PatternIndex index;
  index.add(1, watched, {}, false);
  IncrementalMatcher watched_matcher(watched);

  Rng rng(1234);
  std::uint64_t next_id = 100;
  for (int b = 0; b < 8; ++b) {
    // Churn around the watched query: add/remove duplicate triangles and
    // paths between batches.
    index.add(next_id++, tri.relabeled({1, 2, 0}), {}, false);
    index.add(next_id++, tri, {}, false);
    index.add(next_id++, Pattern::parse(kPath3), {}, false);
    if (b % 2 == 0) {
      EXPECT_TRUE(index.remove(next_id - 2));
      EXPECT_TRUE(index.remove(next_id - 3));
    }
    auto from = g.snapshot();
    const ApplyResult applied = g.apply(random_batch(*from, rng, 5));
    const mqo::MultiQueryEvaluator evaluator(index);
    const mqo::EvalResult res =
        evaluator.evaluate(*from, *applied.snapshot, applied.applied);
    EXPECT_EQ(index.project(1, res).delta,
              watched_matcher.count_delta(from, applied.applied).delta)
        << "batch " << b;
  }
  // Drain the churned ids; only the watched registration must remain, with
  // exactly its own trie nodes.
  for (std::uint64_t id = 100; id < next_id; ++id) index.remove(id);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.num_groups(), 1u);
  const mqo::TrieStats st = index.stats().trie;
  mqo::PatternIndex fresh;
  fresh.add(1, watched, {}, false);
  EXPECT_EQ(st.nodes, fresh.stats().trie.nodes) << "orphan trie nodes";
  EXPECT_EQ(st.terminals, fresh.stats().trie.terminals);
}

TEST(MqoChurn, EmptyIndexAndSinglePatternDegeneratePaths) {
  Graph base = make_erdos_renyi(24, 0.15, 5);
  MutableGraph g(base);
  mqo::PatternIndex index;
  const mqo::MultiQueryEvaluator evaluator(index);

  auto from = g.snapshot();
  Rng rng(42);
  const ApplyResult applied = g.apply(random_batch(*from, rng, 5));
  // Empty index: a well-formed, all-zero result.
  mqo::EvalResult res =
      evaluator.evaluate(*from, *applied.snapshot, applied.applied);
  EXPECT_EQ(res.groups.size(), 0u);
  EXPECT_EQ(res.seed_walks, 0u);

  // Single registration: the trie degenerates to one pattern's plans and
  // still matches the per-pattern matcher (including an edge-only pattern,
  // whose anchored plans have no recursion levels at all).
  const Pattern edge = Pattern::parse("0-1");
  index.add(7, edge, {}, false);
  IncrementalMatcher matcher(edge);
  from = g.snapshot();
  const ApplyResult applied2 = g.apply(random_batch(*from, rng, 4));
  res = evaluator.evaluate(*from, *applied2.snapshot, applied2.applied);
  EXPECT_EQ(index.project(7, res).delta,
            matcher.count_delta(from, applied2.applied).delta);
}

TEST(MqoLedger, StandingBatchWalkCountersAreExact) {
  // The standing walk's work ledger: update_standing's eight shapes
  // (e2e_bench/) on its graph recipe, BA(2000, 6) capped at degree 96,
  // through 32 balanced 16+16 churn batches, compacted before every 16th.
  // The counters are exact, so a change to how the walk prunes, orders or
  // tallies reads here as a number, not as noise. The constants were
  // recorded by running the same batches through the walk over GraphEdit
  // prefix versions (one per polarity, each embedding credited at its
  // highest-indexed delta edge); the ordered walk over the published
  // snapshots reads every one of them unchanged.
  const std::vector<Pattern> shapes = {
      Pattern::parse(kTriangle),        Pattern::parse("0-1,1-2,2-3,3-0"),
      Pattern::parse("0-2,2-1,1-3,3-0"), Pattern::parse(kDiamond),
      Pattern::parse(kTailedTriangle),  Pattern::parse("0-1,1-2,2-3"),
      Pattern::parse("0-1,1-2,2-3,3-4,4-0"), query(6)};
  mqo::PatternIndex index;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    index.add(i + 1, shapes[i], {}, false);
  const mqo::MultiQueryEvaluator evaluator(index);

  MutableGraph g(cap_degrees(make_barabasi_albert(2000, 6, 41), 96, 42));
  Rng rng(8);
  std::uint64_t seed_walks = 0, node_visits = 0;
  std::vector<std::int64_t> net(shapes.size()), gross(shapes.size());
  for (int b = 0; b < 32; ++b) {
    if (b % 16 == 15) g.compact();
    auto from = g.snapshot();
    const ApplyResult applied = g.apply(churn_batch(*from, rng, 16));
    const mqo::EvalResult res =
        evaluator.evaluate(*from, *applied.snapshot, applied.applied);
    seed_walks += res.seed_walks;
    node_visits += res.node_visits;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const std::int64_t delta = index.project(i + 1, res).delta;
      net[i] += delta;
      gross[i] += std::abs(delta);
    }
  }
  EXPECT_EQ(seed_walks, 32u * 32u * 2u);  // both orientations of each edge
  EXPECT_EQ(node_visits, 1935883u);
  EXPECT_EQ(net, (std::vector<std::int64_t>{828, 18352, 18352, 2940, 52478,
                                            551530, 471820, 17220}));
  EXPECT_EQ(gross, (std::vector<std::int64_t>{876, 18720, 18720, 3124, 54514,
                                              556098, 478680, 22176}));
}

/// Brute-force embedding list in original-pattern vertex order (the
/// reference enumerator reports plan-order mappings), sorted.
std::vector<Embedding> reference_embeddings(GraphView g, const Pattern& p) {
  const std::vector<std::size_t> order = matching_order(p);
  std::vector<Embedding> ref;
  std::vector<VertexId> orig(p.size());
  reference_enumerate(g, p, {},
                      [&](const std::vector<VertexId>& m) {
                        for (std::size_t i = 0; i < order.size(); ++i)
                          orig[order[i]] = m[i];
                        ref.push_back(orig);
                      });
  std::sort(ref.begin(), ref.end());
  return ref;
}

TEST(MqoSession, IndexedSessionMatchesPerPatternSession) {
  // The session evaluates standing queries only through the shared index;
  // the per-pattern IncrementalMatcher / DeltaStreamer pipeline and full
  // re-enumeration are its oracles, fed the same pre-batch snapshot and
  // effective delta.
  const Graph base = make_erdos_renyi(32, 0.14, 13);
  GraphSession session(base);

  // A duplicate-heavy mix: two relabeled triangles, a path, a 4-clique.
  const Pattern tri = Pattern::parse(kTriangle);
  const std::vector<Pattern> patterns{tri, tri.relabeled({1, 2, 0}),
                                      Pattern::parse(kPath3),
                                      Pattern::parse(kFourClique)};
  std::vector<std::uint64_t> ids;
  std::map<std::uint64_t, StandingQueryDelta> deltas;
  std::vector<std::unique_ptr<IncrementalMatcher>> matchers;
  std::vector<std::unique_ptr<stream::DeltaStreamer>> streamers;
  for (const Pattern& p : patterns) {
    StandingQueryConfig cfg;
    cfg.pattern = p;
    cfg.on_delta = [&deltas](const StandingQueryDelta& d) {
      deltas[d.query_id] = d;
    };
    ids.push_back(session.register_standing_query(cfg));
    matchers.push_back(std::make_unique<IncrementalMatcher>(p));
    streamers.push_back(
        std::make_unique<stream::DeltaStreamer>(p, PlanOptions{}));
  }
  // Four queries, three canonical groups: the relabeled triangle rode its
  // sibling's baseline and shares the triangle's trie chain.
  EXPECT_EQ(session.metrics().gauge("standing_patterns").value(), 3.0);
  const mqo::IndexStats st = session.standing_index_stats();
  EXPECT_EQ(st.registrations, 4u);
  EXPECT_EQ(st.groups, 3u);
  EXPECT_EQ(session.metrics().gauge("trie_nodes").value(),
            static_cast<double>(st.trie.nodes));
  EXPECT_GT(session.metrics().gauge("shared_prefix_ratio").value(), 0.0);

  Rng rng(606);
  int applied = 0;
  for (int b = 0; b < 6; ++b) {
    const auto from = session.snapshot();
    deltas.clear();
    const UpdateOutcome out =
        session.apply_updates(random_batch(*from, rng, 5));
    ASSERT_TRUE(out.ok());
    if (out.applied.empty()) continue;
    ++applied;
    ASSERT_EQ(out.updates.size(), patterns.size());
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      EXPECT_EQ(out.updates[i].query_id, ids[i]);
      EXPECT_EQ(out.updates[i].delta,
                matchers[i]->count_delta(from, out.applied).delta)
          << "session vs IncrementalMatcher, pattern " << i << " batch " << b;
      const stream::DeltaBatch db = streamers[i]->delta(from, out.applied);
      ASSERT_TRUE(deltas.contains(ids[i]));
      EXPECT_EQ(deltas[ids[i]].added, db.added)
          << "session vs DeltaStreamer, pattern " << i << " batch " << b;
      EXPECT_EQ(deltas[ids[i]].retracted, db.retracted)
          << "session vs DeltaStreamer, pattern " << i << " batch " << b;
      EXPECT_EQ(session.standing_query(ids[i])->count,
                reference_count(session.snapshot()->view(), patterns[i], {}))
          << "session vs full recount, pattern " << i << " batch " << b;
    }
  }
  ASSERT_GT(applied, 0);
  EXPECT_EQ(session.metrics()
                .histogram("indexed_delta_latency_ms")
                .snapshot()
                .count,
            static_cast<std::uint64_t>(applied));

  // Unregistering everything drains the trie and the gauges.
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(session.unregister_standing_query(id));
  }
  EXPECT_EQ(session.metrics().gauge("standing_patterns").value(), 0.0);
  EXPECT_EQ(session.metrics().gauge("trie_nodes").value(), 0.0);
  EXPECT_EQ(session.standing_index_stats().trie.nodes, 0u);
}

TEST(MqoSession, SiblingBaselineSkipsFullEnumeration) {
  GraphSession session(make_erdos_renyi(30, 0.15, 44));
  StandingQueryConfig cfg;
  cfg.pattern = Pattern::parse(kTriangle);
  const std::uint64_t first = session.register_standing_query(cfg);

  StandingQueryConfig dup;
  dup.pattern = cfg.pattern.relabeled({2, 0, 1});
  const std::uint64_t second = session.register_standing_query(dup);

  const auto a = session.standing_query(first);
  const auto b = session.standing_query(second);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->count, b->count);
  EXPECT_EQ(b->full_ms, 0.0) << "duplicate should ride the sibling baseline";
  EXPECT_EQ(b->count,
            reference_count(session.snapshot()->view(), dup.pattern, {}));

  // And the shared count stays exact for both under updates.
  Rng rng(777);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        session.apply_updates(random_batch(*session.snapshot(), rng, 5)).ok());
  }
  EXPECT_EQ(session.standing_query(first)->count,
            reference_count(session.snapshot()->view(), cfg.pattern, {}));
  EXPECT_EQ(session.standing_query(second)->count,
            session.standing_query(first)->count);
}

TEST(MqoSession, OnDeltaStreamsExactEmbeddings) {
  const Graph base = make_erdos_renyi(28, 0.15, 71);
  GraphSession session(base);

  // Maintain the full embedding set from the stream; it must track full
  // re-enumeration exactly.
  std::vector<Embedding> live =
      reference_embeddings(GraphView(base), Pattern::parse(kTriangle));

  StandingQueryConfig cfg;
  cfg.pattern = Pattern::parse(kTriangle);
  std::int64_t stream_delta_sum = 0;
  cfg.on_delta = [&](const StandingQueryDelta& d) {
    for (const Embedding& e : d.retracted) {
      const auto it = std::lower_bound(live.begin(), live.end(), e);
      ASSERT_TRUE(it != live.end() && *it == e) << "retracted unknown match";
      live.erase(it);
    }
    for (const Embedding& e : d.added) {
      live.insert(std::lower_bound(live.begin(), live.end(), e), e);
    }
    stream_delta_sum += static_cast<std::int64_t>(d.added.size()) -
                        static_cast<std::int64_t>(d.retracted.size());
  };
  const std::uint64_t id = session.register_standing_query(cfg);

  Rng rng(31415);
  for (int b = 0; b < 6; ++b) {
    ASSERT_TRUE(
        session.apply_updates(random_batch(*session.snapshot(), rng, 5)).ok());
    ASSERT_EQ(live,
              reference_embeddings(session.snapshot()->view(), cfg.pattern))
        << "batch " << b;
  }
  const auto info = session.standing_query(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(static_cast<std::int64_t>(info->count),
            static_cast<std::int64_t>(
                reference_count(GraphView(base), cfg.pattern, {})) +
                stream_delta_sum);
}

TEST(MqoSession, RejectsWhatTheLoopRejects) {
  GraphSession session(make_erdos_renyi(20, 0.2, 2));
  StandingQueryConfig cfg;
  cfg.pattern = Pattern::parse(kPath3);
  cfg.plan.induced = Induced::kVertex;
  EXPECT_THROW(session.register_standing_query(cfg), check_error);

  StandingQueryConfig bad_delta;
  bad_delta.pattern = Pattern::parse(kTriangle);
  bad_delta.plan.count_mode = CountMode::kUniqueSubgraphs;
  bad_delta.on_delta = [](const StandingQueryDelta&) {};
  EXPECT_THROW(session.register_standing_query(bad_delta), check_error);

  // Failed registrations leave no trace in the index.
  EXPECT_EQ(session.standing_index_stats().registrations, 0u);
  EXPECT_EQ(session.standing_index_stats().trie.nodes, 0u);
}

TEST(MqoSession, UniqueSubgraphModeMatchesLoopSession) {
  // A kUniqueSubgraphs registration and an isomorphic kEmbeddings one with
  // an on_delta subscriber share a group; the per-pattern pipeline in each
  // mode and full re-enumeration are the oracles.
  const Graph base = make_erdos_renyi(26, 0.18, 17);
  GraphSession session(base);
  const Pattern tri = Pattern::parse(kTriangle);
  StandingQueryConfig cfg;
  cfg.pattern = tri;
  cfg.plan.count_mode = CountMode::kUniqueSubgraphs;
  const std::uint64_t uid = session.register_standing_query(cfg);
  StandingQueryDelta last;
  StandingQueryConfig emb;
  emb.pattern = tri.relabeled({2, 0, 1});
  emb.on_delta = [&last](const StandingQueryDelta& d) { last = d; };
  const std::uint64_t eid = session.register_standing_query(emb);

  const IncrementalMatcher unique_matcher(tri, cfg.plan);
  const stream::DeltaStreamer streamer(emb.pattern, PlanOptions{});

  Rng rng(2718);
  for (int b = 0; b < 5; ++b) {
    const auto from = session.snapshot();
    const UpdateOutcome out =
        session.apply_updates(random_batch(*from, rng, 5));
    ASSERT_TRUE(out.ok());
    if (out.applied.empty()) continue;
    ASSERT_EQ(out.updates.size(), 2u);
    EXPECT_EQ(out.updates[0].delta,
              unique_matcher.count_delta(from, out.applied).delta)
        << "batch " << b;
    const stream::DeltaBatch db = streamer.delta(from, out.applied);
    EXPECT_EQ(last.added, db.added) << "batch " << b;
    EXPECT_EQ(last.retracted, db.retracted) << "batch " << b;
    EXPECT_EQ(out.updates[1].delta, 6 * out.updates[0].delta)
        << "|Aut(triangle)| embeddings per subgraph, batch " << b;
  }
  EXPECT_EQ(session.standing_query(uid)->count,
            reference_count(session.snapshot()->view(), tri,
                            {Induced::kEdge, CountMode::kUniqueSubgraphs}));
  EXPECT_EQ(session.standing_query(eid)->count,
            reference_count(session.snapshot()->view(), emb.pattern, {}));
}

}  // namespace
}  // namespace stm
