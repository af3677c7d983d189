// Tests for the compressed & out-of-core storage subsystem (DESIGN.md §14):
// delta/varint encoding + skip-anchor cursors, the page file / clock pager,
// GraphStore backend equivalence, the checkpoint graph format, the
// service-layer wiring, and the chaos / differential suites (StorageChaos,
// StorageDifferential, StorageSpillGate run under their own ctest labels).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "core/host_engine.hpp"
#include "graph/generators.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/pattern.hpp"
#include "persist/checkpoint.hpp"
#include "persist/codec.hpp"
#include "service/service.hpp"
#include "storage/compressed.hpp"
#include "storage/encoding.hpp"
#include "storage/pagefile.hpp"
#include "storage/pager.hpp"
#include "storage/store.hpp"
#include "testing/minimize.hpp"
#include "testing/oracle.hpp"
#include "testing/repro.hpp"
#include "testing/seed.hpp"
#include "testing/workload.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

using storage::Backend;
using storage::encode_adjacency;
using storage::GraphStore;
using storage::ListCursor;
using storage::StoragePolicy;

std::vector<VertexId> sorted_unique_list(Rng& rng, std::size_t size,
                                         VertexId universe) {
  std::vector<VertexId> v;
  while (v.size() < size)
    v.push_back(static_cast<VertexId>(rng.next_below(universe)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<VertexId> neighbors_of(const GraphView& view, VertexId v) {
  const auto s = view.neighbors(v);
  return std::vector<VertexId>(s.begin(), s.end());
}

std::vector<VertexId> neighbors_of(const Graph& g, VertexId v) {
  const auto s = g.neighbors(v);
  return std::vector<VertexId>(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// StorageEncoding: varint/delta lists and the skip-anchor cursor
// ---------------------------------------------------------------------------

TEST(StorageEncoding, RoundtripAcrossDegreesAndBlockSizes) {
  Rng rng(0x5701);
  for (const std::uint32_t block : {1u, 4u, 32u, 256u}) {
    for (const std::size_t degree : {std::size_t{0}, std::size_t{1},
                                     std::size_t{31}, std::size_t{32},
                                     std::size_t{33}, std::size_t{1000}}) {
      const std::vector<VertexId> list =
          sorted_unique_list(rng, degree, 1 << 20);
      std::vector<std::uint8_t> bytes;
      encode_adjacency(list.data(), list.size(), block, bytes);
      std::vector<VertexId> back;
      storage::decode_adjacency(bytes.data(), bytes.data() + bytes.size(),
                                block, back);
      EXPECT_EQ(back, list) << "block=" << block << " degree=" << degree;
    }
  }
}

TEST(StorageEncoding, CursorMatchesLowerBoundInAnyProbeOrder) {
  Rng rng(0x5702);
  const std::vector<VertexId> list = sorted_unique_list(rng, 500, 40000);
  std::vector<std::uint8_t> bytes;
  encode_adjacency(list.data(), list.size(), 32, bytes);
  ListCursor cursor(bytes.data(), bytes.data() + bytes.size(), 32);
  ASSERT_EQ(cursor.degree(), list.size());
  // Probes jump forward and backward; backward seeks restart from anchors.
  for (int probe = 0; probe < 400; ++probe) {
    const auto x = static_cast<VertexId>(rng.next_below(41000));
    cursor.seek_at_least(x);
    const auto it = std::lower_bound(list.begin(), list.end(), x);
    if (it == list.end()) {
      EXPECT_TRUE(cursor.done()) << "x=" << x;
    } else {
      ASSERT_FALSE(cursor.done()) << "x=" << x;
      EXPECT_EQ(cursor.value(), *it) << "x=" << x;
      EXPECT_EQ(cursor.index(),
                static_cast<std::uint32_t>(it - list.begin()));
    }
  }
}

TEST(StorageEncoding, CursorAdvanceAndDecodeRemaining) {
  Rng rng(0x5703);
  const std::vector<VertexId> list = sorted_unique_list(rng, 100, 5000);
  std::vector<std::uint8_t> bytes;
  encode_adjacency(list.data(), list.size(), 32, bytes);
  ListCursor cursor(bytes.data(), bytes.data() + bytes.size(), 32);
  std::vector<VertexId> walked;
  for (std::size_t i = 0; i < list.size() / 2; ++i) {
    walked.push_back(cursor.value());
    cursor.advance();
  }
  cursor.decode_remaining(walked);
  EXPECT_EQ(walked, list);
  EXPECT_TRUE(cursor.done());
}

TEST(StorageEncoding, UnsortedAtBlockBoundaryFailsClosed) {
  // Strictly ascending inside every block but out of order exactly at the
  // block seam (list[4] < list[3] with block_size 4): the per-block gap
  // checks never see this pair, so a dedicated boundary check must reject
  // it — encoded silently it would produce a non-monotone anchor table and
  // break seek_at_least's binary search.
  const std::vector<VertexId> seam = {10, 20, 30, 40, 35, 50, 60, 70};
  std::vector<std::uint8_t> bytes;
  EXPECT_THROW(encode_adjacency(seam.data(), seam.size(), 4, bytes),
               check_error);
  // A duplicate across the seam violates strictness the same way.
  const std::vector<VertexId> dup = {10, 20, 30, 40, 40, 50, 60, 70};
  bytes.clear();
  EXPECT_THROW(encode_adjacency(dup.data(), dup.size(), 4, bytes),
               check_error);
}

TEST(StorageEncoding, TruncatedBytesFailClosed) {
  Rng rng(0x5704);
  const std::vector<VertexId> list = sorted_unique_list(rng, 200, 100000);
  std::vector<std::uint8_t> bytes;
  encode_adjacency(list.data(), list.size(), 32, bytes);
  std::vector<VertexId> out;
  EXPECT_THROW(storage::decode_adjacency(bytes.data(),
                                         bytes.data() + bytes.size() / 2, 32,
                                         out),
               check_error);
}

// ---------------------------------------------------------------------------
// StorageCompressed: whole-graph blob
// ---------------------------------------------------------------------------

TEST(StorageCompressed, DecodeAndHasEdgeMatchRawGraph) {
  const Graph g = make_barabasi_albert(400, 5, 11);
  const storage::CompressedGraph comp(g, 32);
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out.clear();  // decode_into appends
    comp.decode_into(v, out);
    EXPECT_EQ(out, neighbors_of(g, v)) << "v=" << v;
  }
  Rng rng(0x5705);
  for (int i = 0; i < 2000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(comp.has_edge(u, v), g.has_edge(u, v)) << u << "-" << v;
  }
}

TEST(StorageCompressed, PowerLawGraphCompresses) {
  const Graph g = make_barabasi_albert(2000, 8, 23);
  const storage::CompressedGraph comp(g, 32);
  EXPECT_GT(comp.stats().compression_ratio(), 1.0);
}

// ---------------------------------------------------------------------------
// StoragePager: page file layout and the budget-bounded clock cache
// ---------------------------------------------------------------------------

TEST(StoragePager, PageFileRoundtripsEveryVertex) {
  const Graph g = make_barabasi_albert(500, 4, 41);
  const std::string path =
      (std::filesystem::temp_directory_path() / "stm_test_pagefile.spill")
          .string();
  storage::write_page_file(path, g, /*page_size=*/1024, /*block_size=*/32);
  storage::PageFile file = storage::PageFile::open(path);
  EXPECT_EQ(file.num_vertices(), g.num_vertices());
  EXPECT_EQ(file.num_adjacency_entries(), g.num_adjacency_entries());
  EXPECT_GT(file.num_pages(), 1u);
  std::string page;
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(file.read_page(file.location(v).page, page));
    const auto* base =
        reinterpret_cast<const std::uint8_t*>(page.data()) +
        file.location(v).offset;
    storage::decode_adjacency(
        base, reinterpret_cast<const std::uint8_t*>(page.data()) + page.size(),
        file.block_size(), out);
    out.resize(file.degree(v));  // slices share the page tail
    EXPECT_EQ(out, neighbors_of(g, v)) << "v=" << v;
  }
  std::filesystem::remove(path);
}

TEST(StoragePager, ClockCacheStaysUnderBudgetAndEvicts) {
  const Graph g = make_barabasi_albert(2000, 6, 43);
  const std::string path =
      (std::filesystem::temp_directory_path() / "stm_test_pager.spill")
          .string();
  storage::write_page_file(path, g, /*page_size=*/1024, /*block_size=*/32);
  const std::uint64_t budget = 4096;  // four 1 KiB pages
  storage::PageCache cache(storage::PageFile::open(path), budget, {});
  ASSERT_GT(cache.file().num_pages(), 8u);
  Rng rng(0x5709);
  for (int i = 0; i < 3000; ++i) {
    const auto p =
        static_cast<std::uint32_t>(rng.next_below(cache.file().num_pages()));
    const auto data = cache.get_page(p);
    ASSERT_NE(data, nullptr);
    const storage::PagerStats st = cache.stats();
    // The single page being served may exceed the budget by itself; with
    // 1 KiB pages and a 4-page budget it never does.
    EXPECT_LE(st.resident_bytes, budget);
  }
  const storage::PagerStats st = cache.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.faults, 0u);
  std::filesystem::remove(path);
}

TEST(StoragePager, OversizedVertexGetsPrivatePage) {
  // One hub whose encoded list exceeds page_size: it must land in a private
  // oversized page and still decode exactly.
  const Graph g = make_star(3000);
  StoragePolicy policy;
  policy.backend = Backend::kSpill;
  policy.page_size = 512;
  policy.memory_budget_bytes = 2048;
  const auto store = GraphStore::build(Graph(g), policy);
  const auto lease = store->lease();
  const GraphView view = store->view();
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(neighbors_of(view, v), neighbors_of(g, v)) << "v=" << v;
}

// ---------------------------------------------------------------------------
// StorageStore: backend selection, leases, stats
// ---------------------------------------------------------------------------

TEST(StorageStore, AutoSelectionIsDeterministic) {
  StoragePolicy policy;
  policy.backend = Backend::kAuto;
  const Graph plain = make_erdos_renyi(200, 0.05, 3);
  EXPECT_EQ(storage::choose_backend(plain, policy), Backend::kCompressed);
  // A budget forces the spill tier.
  policy.memory_budget_bytes = 4096;
  EXPECT_EQ(storage::choose_backend(plain, policy), Backend::kSpill);
  policy.memory_budget_bytes = 0;
  // Degree skew does not change the pick.
  const Graph hubs = make_star(600);
  EXPECT_EQ(storage::choose_backend(hubs, policy), Backend::kCompressed);
  const Graph empty = GraphBuilder(0).build();
  EXPECT_EQ(storage::choose_backend(empty, policy), Backend::kUncompressed);
}

TEST(StorageStore, EveryBackendServesIdenticalViewsAndLabels) {
  Graph g = make_barabasi_albert(300, 5, 51);
  std::vector<Label> labels(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    labels[v] = static_cast<Label>(v % 3);
  g = g.with_labels(std::move(labels));
  for (const Backend b :
       {Backend::kUncompressed, Backend::kCompressed, Backend::kSpill}) {
    StoragePolicy policy;
    policy.backend = b;
    if (b == Backend::kSpill) {
      policy.memory_budget_bytes = 2048;
      policy.page_size = 512;
    }
    const auto store = GraphStore::build(Graph(g), policy);
    const auto lease = store->lease();
    const GraphView view = store->view();
    ASSERT_EQ(view.num_vertices(), g.num_vertices());
    ASSERT_TRUE(view.is_labeled());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(neighbors_of(view, v), neighbors_of(g, v))
          << storage::to_string(b) << " v=" << v;
      ASSERT_EQ(view.degree(v), g.degree(v));
      ASSERT_EQ(view.label(v), g.label(v));
    }
    Rng rng(0x570a);
    for (int i = 0; i < 500; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto w = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      ASSERT_EQ(view.has_edge(u, w), g.has_edge(u, w))
          << storage::to_string(b);
    }
  }
}

TEST(StorageStore, TrimIsBlockedWhileLeased) {
  StoragePolicy policy;
  policy.backend = Backend::kCompressed;
  const auto store =
      GraphStore::build(make_barabasi_albert(200, 4, 61), policy);
  {
    const auto lease = store->lease();
    const GraphView view = store->view();
    std::uint64_t sum = 0;
    for (VertexId v = 0; v < view.num_vertices(); ++v)
      for (const VertexId u : view.neighbors(v)) sum += u;
    ASSERT_GT(sum, 0u);
    EXPECT_GT(store->stats().decoded_cache_bytes, 0u);
    EXPECT_FALSE(store->trim_decoded());  // span holders are protected
    EXPECT_GT(store->stats().decoded_cache_bytes, 0u);
  }
  EXPECT_TRUE(store->trim_decoded());
  EXPECT_EQ(store->stats().decoded_cache_bytes, 0u);
  EXPECT_GT(store->stats().decode_ops, 0u);
}

TEST(StorageStore, MutationPathsHoldLeasesAgainstTrim) {
  storage::StoragePolicy policy;
  policy.backend = Backend::kCompressed;
  MutableGraph dyn(make_barabasi_albert(300, 4, 91), 0, policy);
  const auto store = dyn.snapshot()->store();
  ASSERT_NE(store, nullptr);

  {
    // A GraphEdit resolves untouched vertices through the store lazily for
    // its whole lifetime, so it must pin the decode cache on its own.
    GraphEdit edit(dyn.snapshot());
    ASSERT_TRUE(edit.view().has_edge(0, 1) || !edit.view().has_edge(0, 1));
    EXPECT_FALSE(store->trim_decoded());
  }
  EXPECT_TRUE(store->trim_decoded());

  // Race the store-backed mutation readers (apply's redundancy probes,
  // compacted(), point has_edge) against a concurrent trimmer: each path
  // takes its own lease, so decoded lists are never freed mid-read — a
  // violation is a use-after-free that ASan/TSan make loud.
  std::atomic<bool> stop{false};
  std::thread trimmer([&] {
    while (!stop.load(std::memory_order_relaxed)) store->trim_decoded();
  });
  const VertexId n = dyn.snapshot()->num_vertices();
  const EdgeId edges_before = dyn.snapshot()->num_edges();
  for (int i = 0; i < 30; ++i) {
    const VertexId u = static_cast<VertexId>(i % 7);
    const VertexId v = static_cast<VertexId>(n - 1 - i % 11);
    UpdateBatch add;
    add.insertions.emplace_back(u, v);
    const bool present = dyn.snapshot()->has_edge(u, v);
    dyn.apply(add);
    const Graph folded = dyn.snapshot()->compacted();
    ASSERT_TRUE(folded.has_edge(u, v));
    if (!present) {
      UpdateBatch del;
      del.deletions.emplace_back(u, v);
      dyn.apply(del);
    }
  }
  stop.store(true);
  trimmer.join();
  EXPECT_EQ(dyn.snapshot()->num_edges(), edges_before);
}

/// The page file a spill store with `policy` writes for `g`, opened and
/// already unlinked.
storage::PageFile spill_page_file(const Graph& g, const StoragePolicy& policy) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "stm_test_page_index.spill")
          .string();
  storage::write_page_file(path, g, policy.page_size, policy.block_size);
  storage::PageFile file = storage::PageFile::open(path);
  std::filesystem::remove(path);
  return file;
}

TEST(StorageStore, RunReadsEachPageOnce) {
  // A one-page budget keeps a single frame, so without the pages the decode
  // cache holds, a shuffled pass would read a page for almost every list.
  const Graph g = make_barabasi_albert(600, 5, 141);
  StoragePolicy policy;
  policy.backend = Backend::kSpill;
  policy.page_size = 512;
  policy.memory_budget_bytes = 512;
  const storage::PageFile index = spill_page_file(g, policy);
  const std::uint32_t pages = index.num_pages();
  ASSERT_GT(pages, 8u);
  const auto store = GraphStore::build(Graph(g), policy);
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[v] = v;
  Rng rng(0x570b);
  std::shuffle(order.begin(), order.end(), rng);

  auto pass = [&] {
    const auto lease = store->lease();
    const GraphView view = store->view();
    for (const VertexId v : order)
      ASSERT_EQ(neighbors_of(view, v), neighbors_of(g, v)) << "v=" << v;
  };
  pass();
  storage::StorageStats st = store->stats();
  EXPECT_EQ(st.page_faults, pages);
  EXPECT_EQ(st.page_hits, 0u);
  EXPECT_EQ(st.decode_ops, n);
  EXPECT_GT(st.decoded_cache_bytes, 0u);

  // Trim drops the lists and the held pages. The same order again starts
  // on a page other than the one frame left resident, so the second run
  // reads every page once more.
  ASSERT_TRUE(store->trim_decoded());
  EXPECT_EQ(store->stats().decoded_cache_bytes, 0u);
  pass();
  st = store->stats();
  EXPECT_EQ(st.page_faults, 2u * pages);
  EXPECT_EQ(st.decode_ops, 2u * n);
  ASSERT_TRUE(store->trim_decoded());

  // A sparse run decodes exactly the lists it reads and asks the pager
  // once per distinct page among them.
  for (const std::size_t k : {1u, 16u, 64u}) {
    const storage::StorageStats before = store->stats();
    std::vector<VertexId> touched;
    {
      const auto lease = store->lease();
      const GraphView view = store->view();
      for (std::size_t i = 0; i < k; ++i) {
        const auto v = static_cast<VertexId>(rng.next_below(n));
        ASSERT_EQ(neighbors_of(view, v), neighbors_of(g, v)) << "v=" << v;
        touched.push_back(v);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    // Vertices are packed in ascending order, so the sorted vertices of a
    // page are adjacent.
    std::size_t distinct_pages = 0;
    for (std::size_t i = 0; i < touched.size(); ++i)
      if (i == 0 || index.location(touched[i]).page !=
                        index.location(touched[i - 1]).page)
        ++distinct_pages;
    const storage::StorageStats after = store->stats();
    EXPECT_EQ(after.decode_ops - before.decode_ops, touched.size())
        << "k=" << k;
    EXPECT_EQ((after.page_faults + after.page_hits) -
                  (before.page_faults + before.page_hits),
              distinct_pages)
        << "k=" << k;
    ASSERT_TRUE(store->trim_decoded());
  }
}

TEST(StorageStore, SpillReadersHoldLeasesAgainstTrim) {
  // Three readers decode from shared held pages while a fourth thread
  // trims: a trim either refuses while a lease is held or frees lists and
  // pages no reader can still see. A violation is a use-after-free or a
  // data race that ASan/TSan make loud.
  const Graph g = make_barabasi_albert(500, 5, 151);
  StoragePolicy policy;
  policy.backend = Backend::kSpill;
  policy.page_size = 512;
  policy.memory_budget_bytes = 512;
  const auto store = GraphStore::build(Graph(g), policy);
  std::atomic<bool> stop{false};
  std::thread trimmer([&] {
    while (!stop.load(std::memory_order_relaxed)) store->trim_decoded();
  });
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (std::uint64_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0x570c + t);
      for (int round = 0; round < 100; ++round) {
        const auto lease = store->lease();
        const GraphView view = store->view();
        for (int i = 0; i < 16; ++i) {
          const auto v =
              static_cast<VertexId>(rng.next_below(g.num_vertices()));
          const auto got = view.neighbors(v);
          const auto want = g.neighbors(v);
          if (!std::equal(got.begin(), got.end(), want.begin(), want.end()))
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  trimmer.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(store->trim_decoded());
  EXPECT_EQ(store->stats().decoded_cache_bytes, 0u);
}

TEST(StorageStore, GraphMemoryBytesCoversTheCSR) {
  const Graph g = make_barabasi_albert(1000, 5, 71);
  // row_ptr is (n+1) u64s, adjacency m2 u32s; labels absent here.
  const std::uint64_t floor_bytes =
      (static_cast<std::uint64_t>(g.num_vertices()) + 1) * sizeof(EdgeId) +
      g.num_adjacency_entries() * sizeof(VertexId);
  EXPECT_GE(g.memory_bytes(), floor_bytes);
}

// ---------------------------------------------------------------------------
// StorageCheckpoint: the checkpoint graph format
// ---------------------------------------------------------------------------

TEST(StorageCheckpoint, CompressedAndRawFormatsDecodeIdentically) {
  // Raw CSR is the only graph format: a labeled graph round-trips, and a
  // checkpoint whose format byte reads 1 (the retired compressed format)
  // is rejected even with a valid crc.
  Graph g = make_barabasi_albert(250, 4, 81);
  std::vector<Label> labels(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    labels[v] = static_cast<Label>(v % 4);
  g = g.with_labels(std::move(labels));
  persist::CheckpointData data;
  data.seq = 7;
  data.epoch = 42;
  data.last_lsn = 99;
  data.graph = Graph(g);
  const std::string bytes = persist::encode_checkpoint(data);

  const persist::CheckpointData back = persist::decode_checkpoint(bytes);
  EXPECT_EQ(back.seq, 7u);
  EXPECT_EQ(back.epoch, 42u);
  ASSERT_EQ(back.graph.num_vertices(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(neighbors_of(back.graph, v), neighbors_of(g, v));
    ASSERT_EQ(back.graph.label(v), g.label(v));
  }

  // Header: magic, u32 length, u32 crc; the body opens with four u64s
  // (seq, epoch, last_lsn, next_standing_id), then the format byte.
  const std::size_t body = persist::kCheckpointMagicSize + 8;
  std::string format1 = bytes;
  ASSERT_EQ(format1[body + 32], 0);
  format1[body + 32] = 1;
  persist::BinaryWriter crc;
  crc.u32(persist::crc32(std::string_view(format1).substr(body)));
  format1.replace(body - 4, 4, crc.take());
  try {
    persist::decode_checkpoint(format1);
    ADD_FAILURE() << "format byte 1 decoded";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown graph format 1"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// StorageSession: service-layer wiring (policy, metrics, compact)
// ---------------------------------------------------------------------------

Pattern triangle() { return Pattern::parse("0-1,1-2,2-0"); }

QueryRequest host_request(const Pattern& p) {
  QueryRequest req;
  req.pattern = p;
  req.engine = EngineKind::kHost;
  return req;
}

TEST(StorageSession, BackendsServeIdenticalCountsThroughTheService) {
  const Graph g = make_barabasi_albert(120, 5, 91);
  GraphSession raw{Graph(g)};
  const QueryResult want = raw.run(host_request(triangle()));
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want.count, 0u);
  for (const Backend b :
       {Backend::kCompressed, Backend::kSpill, Backend::kAuto}) {
    SessionConfig cfg;
    cfg.storage.backend = b;
    if (b == Backend::kSpill) {
      cfg.storage.memory_budget_bytes = 2048;
      cfg.storage.page_size = 512;
    }
    GraphSession session(Graph(g), cfg);
    const QueryResult got = session.run(host_request(triangle()));
    ASSERT_TRUE(got.ok()) << storage::to_string(b) << ": " << got.error;
    EXPECT_EQ(got.count, want.count) << storage::to_string(b);
    // The decode-ops counter moved and the footprint gauges are live.
    EXPECT_GT(session.metrics().counter("storage_decode_ops_total").value(),
              0u)
        << storage::to_string(b);
    EXPECT_GT(session.metrics().gauge("graph_resident_bytes").value(), 0.0);
    EXPECT_GT(session.metrics().gauge("storage_resident_bytes").value(), 0.0);
    EXPECT_GT(session.metrics().gauge("compression_ratio").value(), 1.0)
        << storage::to_string(b);
  }
}

TEST(StorageSession, UpdatesLayerOverTheBackendAndCompactReencodes) {
  const Graph g = make_erdos_renyi(60, 0.15, 17);
  SessionConfig cfg;
  cfg.storage.backend = Backend::kCompressed;
  GraphSession session(Graph(g), cfg);
  GraphSession raw{Graph(g)};

  UpdateBatch batch;
  for (VertexId v = 0; v + 3 < 12; ++v) {
    batch.insertions.emplace_back(v, v + 3);
    batch.insertions.emplace_back(v, v + 2);
  }
  ASSERT_TRUE(session.apply_updates(batch).ok());
  ASSERT_TRUE(raw.apply_updates(batch).ok());
  const QueryResult before_compact = session.run(host_request(triangle()));
  const QueryResult want = raw.run(host_request(triangle()));
  ASSERT_TRUE(before_compact.ok());
  EXPECT_EQ(before_compact.count, want.count);

  // compact() folds the overlay into a fresh compressed base; counts and
  // the spill/compression gauges must survive the backend rebuild.
  session.compact();
  const QueryResult after_compact = session.run(host_request(triangle()));
  ASSERT_TRUE(after_compact.ok());
  EXPECT_EQ(after_compact.count, want.count);
  EXPECT_GT(session.metrics().gauge("compression_ratio").value(), 1.0);
}

TEST(StorageSession, PageFaultCounterMovesOnSpill) {
  SessionConfig cfg;
  cfg.storage.backend = Backend::kSpill;
  cfg.storage.memory_budget_bytes = 1024;
  cfg.storage.page_size = 512;
  GraphSession session(make_barabasi_albert(400, 5, 101), cfg);
  const QueryResult r = session.run(host_request(triangle()));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(session.metrics().counter("storage_page_faults_total").value(),
            0u);
}

TEST(StorageSession, SpillCountReadsEachPageOnce) {
  // One client, one count: the query's run reads each page of the file
  // once, however its plan orders the list decodes.
  SessionConfig cfg;
  cfg.storage.backend = Backend::kSpill;
  cfg.storage.memory_budget_bytes = 1024;
  cfg.storage.page_size = 512;
  const Graph g = make_barabasi_albert(400, 5, 101);
  const std::uint32_t pages = spill_page_file(g, cfg.storage).num_pages();
  GraphSession session(Graph(g), cfg);
  const auto& faults = session.metrics().counter("storage_page_faults_total");
  const std::uint64_t before = faults.value();
  const QueryResult r = session.run(host_request(triangle()));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(faults.value() - before, pages);
}

// ---------------------------------------------------------------------------
// StorageChaos: FaultSite::kPageRead — fail-closed, deterministic retry
// ---------------------------------------------------------------------------

std::uint64_t scan_sum(const GraphStore& store) {
  const auto lease = store.lease();
  const GraphView view = store.view();
  std::uint64_t sum = 0;
  for (VertexId v = 0; v < view.num_vertices(); ++v)
    for (const VertexId u : view.neighbors(v)) sum += u * 31 + 1;
  return sum;
}

TEST(StorageChaos, PageReadFaultsRetryToBitIdenticalAdjacency) {
  const Graph g = make_barabasi_albert(600, 5, 111);
  StoragePolicy clean;
  clean.backend = Backend::kSpill;
  clean.memory_budget_bytes = 2048;
  clean.page_size = 512;
  const std::uint64_t want = scan_sum(*GraphStore::build(Graph(g), clean));

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    FaultConfig chaos;
    chaos.seed = seed;
    chaos.set_rate(FaultSite::kPageRead, 0.3);
    const auto store = GraphStore::build(Graph(g), clean, chaos);
    EXPECT_EQ(scan_sum(*store), want) << "seed=" << seed;
    const storage::StorageStats st = store->stats();
    EXPECT_GT(st.injected_page_faults, 0u)
        << "seed=" << seed << ": a 30% rate injected nothing";

    // Same seed, same schedule, same recovery: bit-identical stats.
    const auto again = GraphStore::build(Graph(g), clean, chaos);
    EXPECT_EQ(scan_sum(*again), want);
    EXPECT_EQ(again->stats().injected_page_faults, st.injected_page_faults);
    EXPECT_EQ(again->stats().page_faults, st.page_faults);
  }
}

TEST(StorageChaos, RetryBudgetExhaustionFailsClosed) {
  StoragePolicy policy;
  policy.backend = Backend::kSpill;
  policy.memory_budget_bytes = 1024;
  policy.page_size = 256;
  FaultConfig fault;
  fault.seed = 5;
  fault.set_rate(FaultSite::kPageRead, 1.0);
  fault.max_unit_attempts = 2;
  const auto store = GraphStore::build(make_barabasi_albert(300, 4, 121),
                                       policy, fault);
  EXPECT_THROW(scan_sum(*store), storage::PageReadError);
}

TEST(StorageChaos, ServiceContainsPageReadExhaustion) {
  // Through the service boundary an exhausted pager must surface as a failed
  // query, not a crash — and must not poison later fault-free sessions.
  SessionConfig cfg;
  cfg.storage.backend = Backend::kSpill;
  cfg.storage.memory_budget_bytes = 1024;
  cfg.storage.page_size = 256;
  cfg.fault.seed = 9;
  cfg.fault.set_rate(FaultSite::kPageRead, 1.0);
  cfg.fault.max_unit_attempts = 1;
  cfg.resilience.enable_fallback = false;
  cfg.resilience.retry.max_attempts = 1;
  GraphSession session(make_barabasi_albert(200, 4, 131), cfg);
  const QueryResult r = session.run(host_request(triangle()));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.empty());
}

// ---------------------------------------------------------------------------
// StorageDifferential / StorageSpillGate: cross-engine agreement over the
// sampled backends, repro/ddmin integration (differential tier)
// ---------------------------------------------------------------------------

TEST(StorageDifferential, OracleAgreesOnEveryForcedBackend) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    harness::TestCase c = harness::random_case(harness::derive_seed(0x570, trial));
    for (const Backend b : {Backend::kCompressed, Backend::kSpill}) {
      c.storage_backend = b;
      c.storage_budget_bytes = b == Backend::kSpill ? 1024 : 0;
      const harness::OracleReport report = harness::run_oracle(c);
      ASSERT_TRUE(report.agreed)
          << storage::to_string(b) << "\n" << report.describe();
      const bool lane_ran = std::any_of(
          report.counts.begin(), report.counts.end(), [](const auto& e) {
            return e.engine == harness::EngineKind::kStorage;
          });
      EXPECT_TRUE(lane_ran) << storage::to_string(b);
    }
  }
}

TEST(StorageDifferential, SampledCasesExerciseTheLane) {
  std::size_t lane_cases = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed)
    if (harness::random_case(seed).storage_backend != Backend::kUncompressed)
      ++lane_cases;
  // The backend stream samples uniformly over four slots, three of them
  // lane backends (compressed fills two); 40 cases landing fewer than 10
  // non-default draws would mean the stream is broken.
  EXPECT_GE(lane_cases, 10u);
}

TEST(StorageDifferential, ReproRoundtripPreservesStorageKnobs) {
  harness::TestCase c = harness::random_case(19);
  c.storage_backend = Backend::kSpill;
  c.storage_budget_bytes = 2048;
  const harness::TestCase back = harness::from_repro(harness::to_repro(c));
  EXPECT_EQ(back.storage_backend, Backend::kSpill);
  EXPECT_EQ(back.storage_budget_bytes, 2048u);
  c.storage_backend = Backend::kUncompressed;
  c.storage_budget_bytes = 0;
  const harness::TestCase plain = harness::from_repro(harness::to_repro(c));
  EXPECT_EQ(plain.storage_backend, Backend::kUncompressed);
}

TEST(StorageDifferential, MinimizerDropsStorageWhenFailureIsEngineSide) {
  // A predicate that fails regardless of backend: ddmin must reset the
  // storage knobs (an engine bug should repro on the raw CSR).
  harness::TestCase c = harness::random_case(29);
  c.storage_backend = Backend::kSpill;
  c.storage_budget_bytes = 1024;
  const harness::MinimizeResult result = harness::minimize(
      c, [](const harness::TestCase&) { return true; });
  ASSERT_TRUE(result.still_failing);
  EXPECT_EQ(result.reduced.storage_backend, Backend::kUncompressed);
  EXPECT_EQ(result.reduced.storage_budget_bytes, 0u);
}

TEST(StorageSpillGate, DifferentialTierCompletesUnderTinyBudget) {
  // The release gate: the whole sampled differential surface must pass with
  // the spill tier forced on, under a budget smaller than every case's raw
  // graph — true out-of-core execution, bit-identical counts.
  std::size_t gated = 0;
  for (std::uint64_t trial = 0; trial < 16 && gated < 8; ++trial) {
    harness::TestCase c =
        harness::random_case(harness::derive_seed(0x5b111, trial));
    // Corner-case graphs can be smaller than one page; they cannot model
    // out-of-core serving, so the gate skips them.
    if (c.graph.memory_bytes() < 2048) continue;
    ++gated;
    c.storage_backend = Backend::kSpill;
    c.storage_budget_bytes = c.graph.memory_bytes() / 8;
    ASSERT_LT(c.storage_budget_bytes, c.graph.memory_bytes());
    const harness::OracleReport report = harness::run_oracle(c);
    ASSERT_TRUE(report.agreed) << "trial " << trial << "\n"
                               << report.describe();
  }
  EXPECT_GE(gated, 4u);
}

}  // namespace
}  // namespace stm
