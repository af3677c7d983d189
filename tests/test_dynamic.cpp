// Tests for the dynamic graph subsystem: MutableGraph batch application,
// GraphSnapshot versioning/isolation, GraphEdit and its copy-on-write pages,
// apply-path fault injection, and edge-list load validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/reference.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "pattern/pattern.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

Graph path4() {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  return b.build();
}

/// Every undirected edge of `g`, u < v, sorted.
std::vector<std::pair<VertexId, VertexId>> edge_set(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  return edges;
}

/// A balanced churn batch on `snap`: `half` deletions of present edges and
/// `half` insertions of absent ones, endpoints drawn uniformly.
UpdateBatch churn_batch(const GraphSnapshot& snap, std::size_t half, Rng& rng) {
  const GraphView view = snap.view();
  const VertexId n = snap.num_vertices();
  UpdateBatch b;
  auto fresh = [](const std::vector<std::pair<VertexId, VertexId>>& edges,
                  VertexId u, VertexId v) {
    return std::find(edges.begin(), edges.end(),
                     std::pair{std::min(u, v), std::max(u, v)}) == edges.end();
  };
  while (b.deletions.size() < half) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto nbrs = view.neighbors(u);
    if (nbrs.empty()) continue;
    const VertexId v = nbrs[rng() % nbrs.size()];
    if (fresh(b.deletions, u, v))
      b.deletions.emplace_back(std::min(u, v), std::max(u, v));
  }
  while (b.insertions.size() < half) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto v = static_cast<VertexId>(rng() % n);
    if (u != v && !view.has_edge(u, v) && fresh(b.insertions, u, v))
      b.insertions.emplace_back(std::min(u, v), std::max(u, v));
  }
  return b;
}

// ---------------------------------------------------------------------------
// MutableGraph: apply / normalize / redundancy / validation
// ---------------------------------------------------------------------------

TEST(DynamicGraph, ApplyInsertsAndDeletes) {
  MutableGraph g(path4());
  EXPECT_EQ(g.epoch(), 0u);

  UpdateBatch batch;
  batch.insertions = {{3, 0}, {1, 3}};  // any orientation
  batch.deletions = {{1, 2}};
  ApplyResult r = g.apply(batch);

  EXPECT_EQ(r.snapshot->epoch(), 1u);
  EXPECT_EQ(g.epoch(), 1u);
  EXPECT_EQ(r.stats.inserted, 2u);
  EXPECT_EQ(r.stats.deleted, 1u);
  EXPECT_EQ(r.snapshot->num_edges(), 4u);
  EXPECT_TRUE(r.snapshot->has_edge(0, 3));
  EXPECT_TRUE(r.snapshot->has_edge(1, 3));
  EXPECT_FALSE(r.snapshot->has_edge(1, 2));
  EXPECT_TRUE(r.snapshot->has_edge(0, 1));
  // Effective delta is normalized: u < v, sorted.
  ASSERT_EQ(r.applied.inserted.size(), 2u);
  EXPECT_EQ(r.applied.inserted[0], (std::pair<VertexId, VertexId>{0, 3}));
  EXPECT_EQ(r.applied.inserted[1], (std::pair<VertexId, VertexId>{1, 3}));
  ASSERT_EQ(r.applied.deleted.size(), 1u);
}

TEST(DynamicGraph, RedundantUpdatesAreReportedNotApplied) {
  MutableGraph g(path4());
  UpdateBatch batch;
  batch.insertions = {{0, 1}, {1, 0}, {0, 3}};  // 0-1 exists; duplicate listing
  batch.deletions = {{0, 2}};                   // absent
  ApplyResult r = g.apply(batch);
  EXPECT_EQ(r.stats.inserted, 1u);
  EXPECT_EQ(r.stats.ignored_existing, 1u);
  EXPECT_EQ(r.stats.deleted, 0u);
  EXPECT_EQ(r.stats.ignored_missing, 1u);
  EXPECT_EQ(r.applied.size(), 1u);
  EXPECT_EQ(r.snapshot->num_edges(), 4u);
}

TEST(DynamicGraph, NoOpBatchKeepsEpochAndSnapshot) {
  MutableGraph g(path4());
  auto before = g.snapshot();
  UpdateBatch batch;
  batch.insertions = {{0, 1}};  // already present
  ApplyResult r = g.apply(batch);
  EXPECT_EQ(r.snapshot, before);
  EXPECT_EQ(g.epoch(), 0u);
  EXPECT_TRUE(r.applied.empty());

  ApplyResult empty = g.apply(UpdateBatch{});
  EXPECT_EQ(empty.snapshot, before);
  EXPECT_EQ(g.epoch(), 0u);
}

TEST(DynamicGraph, InvalidBatchesAreRejected) {
  MutableGraph g(path4());
  {
    UpdateBatch b;
    b.insertions = {{2, 2}};  // self-loop
    EXPECT_THROW(g.apply(b), check_error);
  }
  {
    UpdateBatch b;
    b.insertions = {{0, 4}};  // out of range
    EXPECT_THROW(g.apply(b), check_error);
  }
  {
    UpdateBatch b;
    b.insertions = {{0, 2}};
    b.deletions = {{2, 0}};  // same edge both ways
    EXPECT_THROW(g.apply(b), check_error);
  }
  // Failed batches leave the graph untouched.
  EXPECT_EQ(g.epoch(), 0u);
  EXPECT_EQ(g.snapshot()->num_edges(), 3u);
}

TEST(DynamicGraph, ViewMatchesCompactedAdjacency) {
  Graph base = make_erdos_renyi(30, 0.2, 7);
  MutableGraph g(base);
  Rng rng(11);
  for (int step = 0; step < 10; ++step) {
    UpdateBatch batch;
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<VertexId>(rng() % 30);
      const auto v = static_cast<VertexId>(rng() % 30);
      if (u == v) continue;
      if (rng() % 2 == 0) {
        batch.insertions.emplace_back(u, v);
      } else {
        batch.deletions.emplace_back(u, v);
      }
    }
    // Redundancy is legal but overlap is not; strip overlapping pairs.
    auto canon = [](std::pair<VertexId, VertexId> e) {
      if (e.first > e.second) std::swap(e.first, e.second);
      return e;
    };
    for (auto& e : batch.insertions) e = canon(e);
    for (auto& e : batch.deletions) e = canon(e);
    std::erase_if(batch.deletions, [&](const auto& d) {
      return std::find(batch.insertions.begin(), batch.insertions.end(), d) !=
             batch.insertions.end();
    });
    g.apply(batch);
  }
  auto snap = g.snapshot();
  Graph compacted = snap->compacted();
  ASSERT_EQ(compacted.num_vertices(), snap->num_vertices());
  EXPECT_EQ(compacted.num_edges(), snap->num_edges());
  GraphView view = snap->view();
  for (VertexId u = 0; u < compacted.num_vertices(); ++u) {
    auto nbrs = view.neighbors(u);
    std::vector<VertexId> from_view(nbrs.begin(), nbrs.end());
    auto ref = compacted.neighbors(u);
    std::vector<VertexId> from_csr(ref.begin(), ref.end());
    EXPECT_EQ(from_view, from_csr) << "vertex " << u;
  }
}

TEST(DynamicGraph, CompactPreservesGraphAndEpoch) {
  MutableGraph g(path4());
  UpdateBatch batch;
  batch.insertions = {{0, 2}, {0, 3}};
  batch.deletions = {{1, 2}};
  g.apply(batch);
  const auto before_edges = edge_set(g.snapshot()->compacted());
  const std::uint64_t epoch = g.epoch();

  auto compacted = g.compact();
  EXPECT_EQ(compacted->epoch(), epoch);  // same logical graph
  EXPECT_TRUE(compacted->is_compact());
  EXPECT_EQ(edge_set(compacted->base()), before_edges);
  EXPECT_EQ(compacted->num_edges(), before_edges.size());

  // Updates keep working after compaction.
  UpdateBatch more;
  more.insertions = {{1, 2}};
  ApplyResult r = g.apply(more);
  EXPECT_EQ(r.snapshot->epoch(), epoch + 1);
  EXPECT_TRUE(r.snapshot->has_edge(1, 2));
}

TEST(DynamicGraph, CompactFoldsBatchesThatCancelOut) {
  // An edge inserted and deleted again leaves the graph equal to its base,
  // but its endpoints still carry merged lists; compact() folds them.
  MutableGraph g(path4());
  const auto base_edges = edge_set(g.snapshot()->compacted());
  UpdateBatch insert;
  insert.insertions = {{0, 2}};
  g.apply(insert);
  UpdateBatch remove;
  remove.deletions = {{0, 2}};
  const ApplyResult removed = g.apply(remove);
  EXPECT_FALSE(removed.snapshot->is_compact());
  const std::uint64_t epoch = g.epoch();

  auto compacted = g.compact();
  EXPECT_TRUE(compacted->is_compact());
  EXPECT_EQ(compacted->epoch(), epoch);
  EXPECT_EQ(edge_set(compacted->base()), base_edges);
  EXPECT_EQ(edge_set(compacted->compacted()), base_edges);
  EXPECT_EQ(compacted->num_edges(), base_edges.size());
}

TEST(DynamicGraph, GraphEditLayersOnSnapshot) {
  MutableGraph g(path4());
  UpdateBatch batch;
  batch.insertions = {{0, 2}};
  auto snap = g.apply(batch).snapshot;

  GraphEdit edit(snap);
  EXPECT_TRUE(edit.view().has_edge(0, 2));  // reads through to the snapshot
  edit.add_edge(0, 3);
  edit.remove_edge(1, 2);
  EXPECT_TRUE(edit.view().has_edge(0, 3));
  EXPECT_FALSE(edit.view().has_edge(1, 2));
  // The snapshot is untouched.
  EXPECT_FALSE(snap->has_edge(0, 3));
  EXPECT_TRUE(snap->has_edge(1, 2));
  // Adding a present edge / removing an absent one is misuse.
  EXPECT_THROW(edit.add_edge(0, 1), check_error);
  EXPECT_THROW(edit.remove_edge(1, 2), check_error);

  // A published version keeps the edits so far; later edits leave it be.
  const auto published = edit.publish(7);
  EXPECT_EQ(published->epoch(), 7u);
  EXPECT_EQ(published->num_edges(), snap->num_edges());
  edit.add_edge(1, 2);
  EXPECT_TRUE(published->has_edge(0, 3));
  EXPECT_FALSE(published->has_edge(1, 2));
}

TEST(DynamicGraph, BatchRewritesOnlyItsEndpointPages) {
  // A batch copies the pages that hold its endpoints and shares every other
  // page with its predecessor, so the vertices whose list moved in memory
  // are bounded by those pages, whatever n and however aged the graph: an
  // exact count, at n and 8n, fresh and after 400 churn batches.
  for (const VertexId n : {VertexId{2000}, VertexId{16000}}) {
    MutableGraph g(make_barabasi_albert(n, 6, 17));
    Rng rng(n);
    for (const int aged : {0, 400}) {
      for (int i = 0; i < aged; ++i)
        g.apply(churn_batch(*g.snapshot(), 16, rng));
      const auto before = g.snapshot();
      const UpdateBatch batch = churn_batch(*before, 16, rng);
      const auto after = g.apply(batch).snapshot;
      ASSERT_EQ(after->epoch(), before->epoch() + 1);

      std::set<VertexId> endpoints;
      std::set<VertexId> pages;
      for (const auto* edges : {&batch.insertions, &batch.deletions})
        for (const auto& [u, v] : *edges)
          for (const VertexId x : {u, v}) {
            endpoints.insert(x);
            pages.insert(x / kAdjPageSize);
          }
      const GraphView a = before->view();
      const GraphView b = after->view();
      std::size_t moved = 0;
      for (VertexId v = 0; v < n; ++v)
        if (a.neighbors(v).data() != b.neighbors(v).data()) ++moved;
      EXPECT_GE(moved, endpoints.size()) << "n " << n << ", aged " << aged;
      EXPECT_LE(moved, kAdjPageSize * pages.size())
          << "n " << n << ", aged " << aged;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault injection on the apply path
// ---------------------------------------------------------------------------

TEST(DynamicGraphFault, FailedApplyIsAtomic) {
  MutableGraph g(path4());
  FaultConfig fault;
  fault.seed = 42;
  fault.set_rate(FaultSite::kUpdateApply, 1.0);  // every batch fails
  g.set_fault(fault);

  UpdateBatch batch;
  batch.insertions = {{0, 2}};
  EXPECT_THROW(g.apply(batch), FaultInjectedError);
  // Validation passed, publication did not: nothing changed.
  EXPECT_EQ(g.epoch(), 0u);
  EXPECT_FALSE(g.snapshot()->has_edge(0, 2));
  EXPECT_EQ(g.snapshot()->num_edges(), 3u);
}

TEST(DynamicGraphFault, ScheduleIsDeterministic) {
  FaultConfig fault;
  fault.seed = 7;
  fault.set_rate(FaultSite::kUpdateApply, 0.5);

  auto run_schedule = [&] {
    MutableGraph g(path4());
    g.set_fault(fault);
    std::vector<bool> failed;
    const std::pair<VertexId, VertexId> edges[] = {{0, 2}, {0, 3}, {1, 3}};
    for (const auto& e : edges) {
      UpdateBatch b;
      b.insertions = {e};
      try {
        g.apply(b);
        failed.push_back(false);
      } catch (const FaultInjectedError&) {
        failed.push_back(true);
      }
    }
    return failed;
  };
  EXPECT_EQ(run_schedule(), run_schedule());
}

TEST(DynamicGraphFault, DecisionKeysAreApplyOrdinals) {
  // The i-th batch to reach the check is decided by key i, whether the
  // batches before it passed or failed.
  FaultConfig fault;
  fault.seed = 11;
  fault.set_rate(FaultSite::kUpdateApply, 0.5);
  MutableGraph g(make_path(30));
  g.set_fault(fault);
  std::size_t failures = 0;
  for (VertexId i = 0; i < 12; ++i) {
    UpdateBatch b;
    b.insertions = {{i, i + 15}};  // absent from the path: never a no-op
    bool failed = false;
    try {
      g.apply(b);
    } catch (const FaultInjectedError&) {
      failed = true;
    }
    EXPECT_EQ(failed, FaultInjector(fault).should_fail(FaultSite::kUpdateApply,
                                                       i))
        << "batch " << i;
    failures += failed ? 1 : 0;
  }
  // Both outcomes occur, so the keys of a passing and of a failing batch
  // are both checked.
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, 12u);
}

// ---------------------------------------------------------------------------
// Snapshot isolation (the TSan target: concurrent readers vs. a writer)
// ---------------------------------------------------------------------------

TEST(SnapshotIsolation, HeldSnapshotIsImmutableAcrossUpdates) {
  MutableGraph g(path4());
  auto old_snap = g.snapshot();
  const Pattern wedge = Pattern::parse("0-1,1-2");
  const std::uint64_t before =
      reference_count(old_snap->view(), wedge, {});

  UpdateBatch batch;
  batch.insertions = {{0, 2}, {0, 3}, {1, 3}};
  g.apply(batch);

  // The held snapshot still answers with the old version.
  EXPECT_EQ(old_snap->epoch(), 0u);
  EXPECT_EQ(reference_count(old_snap->view(), wedge, {}), before);
  EXPECT_NE(reference_count(g.snapshot()->view(), wedge, {}), before);
}

TEST(SnapshotIsolation, ConcurrentReadersSeeEpochConsistentCounts) {
  // Writer applies batches while readers enumerate on held snapshots; each
  // reader's count must equal the reference count of its snapshot's epoch.
  // Run under TSan to certify the publication path data-race-free.
  Graph base = make_erdos_renyi(40, 0.12, 3);
  MutableGraph g(base);
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");

  // Precompute per-epoch expected counts by replaying the same batches.
  constexpr int kBatches = 12;
  std::vector<UpdateBatch> batches;
  Rng rng(99);
  for (int i = 0; i < kBatches; ++i) {
    UpdateBatch b;
    for (int j = 0; j < 5; ++j) {
      auto u = static_cast<VertexId>(rng() % 40);
      auto v = static_cast<VertexId>(rng() % 40);
      if (u != v) b.insertions.emplace_back(u, v);
    }
    batches.push_back(std::move(b));
  }
  std::vector<std::uint64_t> expected;  // expected[e] = count at epoch e
  {
    MutableGraph replay(base);
    expected.push_back(reference_count(replay.snapshot()->view(), triangle, {}));
    for (const auto& b : batches) {
      auto snap = replay.apply(b).snapshot;
      while (expected.size() <= snap->epoch())
        expected.push_back(reference_count(snap->view(), triangle, {}));
    }
  }

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto snap = g.snapshot();
        const std::uint64_t count =
            reference_count(snap->view(), triangle, {});
        if (snap->epoch() >= expected.size() ||
            count != expected[snap->epoch()]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (const auto& b : batches) g.apply(b);
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(g.epoch(), static_cast<std::uint64_t>(expected.size() - 1));
}

TEST(SnapshotIsolation, HeldVersionsSurviveLaterBatchesAcrossPages) {
  // Consecutive versions share every page a batch does not write. Hold the
  // version of every epoch while 40 batches insert and delete across four
  // pages: each must still count as it did at its own epoch, for readers
  // racing the batches (the TSan target) and after the last one.
  const VertexId n = 4 * kAdjPageSize;
  MutableGraph g(make_erdos_renyi(n, 0.03, 11));
  const Pattern wedge = Pattern::parse("0-1,1-2");
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");
  auto counts = [&](const GraphSnapshot& snap) {
    return std::pair{reference_count(snap.view(), wedge, {}),
                     reference_count(snap.view(), triangle, {})};
  };
  constexpr int kBatches = 40;
  std::vector<std::shared_ptr<const GraphSnapshot>> held(kBatches + 1);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> at_epoch(kBatches + 1);
  held[0] = g.snapshot();
  at_epoch[0] = counts(*held[0]);
  std::atomic<int> published{1};

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      for (int i = t; !done.load(std::memory_order_acquire); ++i) {
        const int k = i % published.load(std::memory_order_acquire);
        if (counts(*held[k]) != at_epoch[k])
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  Rng rng(5);
  for (int i = 1; i <= kBatches; ++i) {
    held[i] = g.apply(churn_batch(*g.snapshot(), 4, rng)).snapshot;
    at_epoch[i] = counts(*held[i]);
    published.store(i + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (int i = 0; i <= kBatches; ++i) {
    EXPECT_EQ(held[i]->epoch(), static_cast<std::uint64_t>(i));
    EXPECT_EQ(counts(*held[i]), at_epoch[i]) << "epoch " << i;
  }
}

// ---------------------------------------------------------------------------
// Edge-list load validation (strict / lenient)
// ---------------------------------------------------------------------------

TEST(DynamicEdgeList, LenientDedupesAndReports) {
  std::istringstream in(
      "# comment\n"
      "0 1\n"
      "1 0\n"   // duplicate (reversed orientation)
      "0 1\n"   // duplicate (same orientation)
      "2 2\n"   // self-loop
      "1 2\n");
  EdgeListStats stats;
  Graph g = read_edge_list(in, {}, &stats);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(stats.lines, 5u);
  EXPECT_EQ(stats.duplicate_edges, 2u);
  EXPECT_EQ(stats.self_loops, 1u);
  EXPECT_EQ(stats.edges_kept, 2u);
}

TEST(DynamicEdgeList, StrictRejectsDuplicates) {
  std::istringstream in("0 1\n1 0\n");
  EdgeListOptions opts;
  opts.validation = EdgeListValidation::kStrict;
  EXPECT_THROW(read_edge_list(in, opts), check_error);
}

TEST(DynamicEdgeList, StrictRejectsSelfLoops) {
  std::istringstream in("0 1\n2 2\n");
  EdgeListOptions opts;
  opts.validation = EdgeListValidation::kStrict;
  EXPECT_THROW(read_edge_list(in, opts), check_error);
}

TEST(DynamicEdgeList, StrictAcceptsCleanInput) {
  std::istringstream in("0 1\n1 2\n2 0\n");
  EdgeListOptions opts;
  opts.validation = EdgeListValidation::kStrict;
  EdgeListStats stats;
  Graph g = read_edge_list(in, opts, &stats);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(stats.duplicate_edges, 0u);
  EXPECT_EQ(stats.self_loops, 0u);
}

}  // namespace
}  // namespace stm
