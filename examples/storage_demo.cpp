// Storage walkthrough: compressed and out-of-core graph backends behind the
// GraphView seam (DESIGN.md §14).
//
//   ./example_storage_demo [--vertices=N]
//
// The same power-law graph is served three ways — raw CSR, delta/varint
// compressed, and spilled to disk under a tiny page-cache budget — and a
// triangle query returns the identical count through every one of them. The interesting part is the footprint column:
// what each backend keeps resident while doing so.
#include <algorithm>
#include <cstdio>

#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "storage/store.hpp"
#include "util/check.hpp"
#include "util/options.hpp"

namespace {

using namespace stm;

QueryRequest triangle_request() {
  QueryRequest req;
  req.pattern = Pattern::parse("0-1,1-2,2-0");
  req.engine = EngineKind::kHost;
  return req;
}

storage::StoragePolicy policy_for(storage::Backend b, std::uint64_t raw_bytes) {
  storage::StoragePolicy policy;
  policy.backend = b;
  if (b == storage::Backend::kSpill) {
    // The out-of-core operating point: a page cache far below the raw CSR.
    policy.memory_budget_bytes = std::max<std::uint64_t>(4096, raw_bytes / 32);
    policy.page_size = 1 << 13;
  }
  return policy;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  opts.allow_only({"vertices"});
  const auto n = static_cast<VertexId>(opts.get_int("vertices", 4000));

  const Graph g = make_barabasi_albert(n, 6, /*seed=*/11);
  std::printf("graph: %u vertices, %llu edges, raw CSR %llu bytes\n\n",
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
              static_cast<unsigned long long>(g.memory_bytes()));

  // 1. Every backend serves the same query through GraphSession: set
  //    SessionConfig::storage and nothing else changes. kAuto compresses,
  //    or spills when a budget is set.
  std::printf("== 1. one query, three backends ==\n");
  static constexpr storage::Backend kBackends[] = {
      storage::Backend::kUncompressed, storage::Backend::kCompressed,
      storage::Backend::kSpill};
  std::uint64_t expected = 0;
  for (const storage::Backend b : kBackends) {
    SessionConfig cfg;
    cfg.storage = policy_for(b, g.memory_bytes());
    GraphSession session{Graph(g), cfg};
    const QueryResult r = session.run(triangle_request());
    STM_CHECK_MSG(r.ok(), "query failed: " << r.error);
    if (expected == 0) expected = r.count;
    STM_CHECK_MSG(r.count == expected, "backend disagreement");
    std::printf(
        "  %-12s triangles=%-8llu resident=%-9llu decode_ops=%llu "
        "page_faults=%llu\n",
        storage::to_string(b), static_cast<unsigned long long>(r.count),
        static_cast<unsigned long long>(
            session.metrics().gauge("graph_resident_bytes").value()),
        static_cast<unsigned long long>(
            session.metrics().counter("storage_decode_ops_total").value()),
        static_cast<unsigned long long>(
            session.metrics().counter("storage_page_faults_total").value()));
  }

  // 2. Using a GraphStore directly: hold a Lease while an engine (or any
  //    reader) walks the view, then trim the decoded-list cache between
  //    runs. The spill tier's page cache stays under budget throughout.
  std::printf("\n== 2. the store API: lease, view, trim ==\n");
  const auto store = storage::GraphStore::build(
      Graph(g), policy_for(storage::Backend::kSpill, g.memory_bytes()));
  {
    const auto lease = store->lease();  // blocks trim while reading
    const GraphView view = store->view();
    std::uint64_t sum = 0;
    for (VertexId v = 0; v < view.num_vertices(); ++v)
      for (VertexId u : view.neighbors(v)) sum += u;
    const storage::StorageStats st = store->stats();
    std::printf("  scanned all adjacency (checksum %llu)\n",
                static_cast<unsigned long long>(sum));
    std::printf("  decode cache while leased: %llu bytes (trim refused: %s)\n",
                static_cast<unsigned long long>(st.decoded_cache_bytes),
                store->trim_decoded() ? "no" : "yes");
  }
  STM_CHECK(store->trim_decoded());  // lease released: reclaim succeeds
  const storage::StorageStats st = store->stats();
  std::printf(
      "  after trim: resident=%llu bytes vs raw %llu (%.1fx smaller), "
      "file=%llu bytes on disk\n",
      static_cast<unsigned long long>(st.resident_bytes),
      static_cast<unsigned long long>(st.raw_bytes),
      static_cast<double>(st.raw_bytes) /
          static_cast<double>(st.resident_bytes),
      static_cast<unsigned long long>(st.file_bytes));
  std::printf("  pager: %llu faults, %llu hits, %llu evictions\n",
              static_cast<unsigned long long>(st.page_faults),
              static_cast<unsigned long long>(st.page_hits),
              static_cast<unsigned long long>(st.page_evictions));

  std::printf(
      "\nTip: leave SessionConfig::storage.backend = kAuto and set only\n"
      "     memory_budget_bytes; the session spills exactly when the graph\n"
      "     would not fit. tools/graph_info prints this report for any graph.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "storage_demo: %s\n", e.what());
  return 1;
}
