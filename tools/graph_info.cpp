// Graph storage inspector: per-backend footprint of one graph.
//
// Builds (or loads) a graph, prints its degree statistics, then encodes it
// under every storage backend and reports what each one keeps resident —
// the operational view of DESIGN.md §14's footprint trade-offs (a power-law
// graph compresses ~4-6x under delta/varint; the spill tier's resident set
// collapses to the page-cache budget).
//
//   graph_info --family=power-law --vertices=100000
//   graph_info --graph=web.el --budget=1048576
//   graph_info --selftest          (ctest smoke: backends must agree)

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "graph/degree_stats.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "storage/store.hpp"
#include "util/check.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace stm;

void print_usage() {
  std::cout <<
      "usage: graph_info [options]\n"
      "  --graph=FILE       edge-list file to load (overrides --family)\n"
      "  --family=NAME      synthetic family: erdos-renyi | power-law\n"
      "                     (default power-law)\n"
      "  --vertices=N       synthetic graph size (default 10000)\n"
      "  --degree=D         average degree target (default 8)\n"
      "  --seed=S           generator seed (default 42)\n"
      "  --block=B          skip-anchor block size (default 32)\n"
      "  --budget=BYTES     spill-tier page-cache budget (default 1 MiB)\n"
      "  --page=BYTES       spill-tier page size (default 65536)\n"
      "  --selftest         build a small graph, verify every backend\n"
      "                     serves identical adjacency, exit 0/1\n";
}

Graph build_graph(const Options& opts) {
  const std::string path = opts.get("graph", "");
  if (!path.empty()) return load_edge_list(path);
  const auto n = static_cast<VertexId>(opts.get_int("vertices", 10000));
  const double degree = opts.get_double("degree", 8.0);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const std::string family = opts.get("family", "power-law");
  if (family == "erdos-renyi") {
    const double p = n > 1 ? degree / static_cast<double>(n - 1) : 0.0;
    return make_erdos_renyi(n, p, seed);
  }
  if (family == "power-law") {
    const auto m = static_cast<VertexId>(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(degree / 2)));
    return make_barabasi_albert(n, m, seed);
  }
  STM_CHECK_MSG(false, "unknown family '" << family
                                          << "' (erdos-renyi | power-law)");
}

storage::StoragePolicy policy_for(storage::Backend backend,
                                  const Options& opts) {
  storage::StoragePolicy policy;
  policy.backend = backend;
  policy.block_size =
      static_cast<std::uint32_t>(opts.get_int("block", 32));
  if (backend == storage::Backend::kSpill) {
    policy.memory_budget_bytes =
        static_cast<std::uint64_t>(opts.get_int("budget", 1 << 20));
    policy.page_size =
        static_cast<std::uint32_t>(opts.get_int("page", 1 << 16));
  }
  return policy;
}

/// Power-of-two degree histogram: bucket k holds degrees in [2^k, 2^(k+1)),
/// with a separate bucket for isolated vertices. Hubs land in the top
/// buckets.
void print_degree_histogram(const Graph& g) {
  const std::vector<EdgeId> degrees = degree_sequence(g);
  std::vector<std::size_t> buckets;
  std::size_t isolated = 0;
  for (const EdgeId d : degrees) {
    if (d == 0) {
      ++isolated;
      continue;
    }
    std::size_t k = 0;
    while ((EdgeId{2} << k) <= d) ++k;
    if (buckets.size() <= k) buckets.resize(k + 1, 0);
    if (!buckets.empty()) ++buckets[k];
  }
  std::cout << "degree histogram:\n";
  const double n = std::max<double>(1.0, static_cast<double>(degrees.size()));
  auto bar = [](double frac) {
    return std::string(static_cast<std::size_t>(frac * 40.0 + 0.5), '#');
  };
  if (isolated > 0)
    std::cout << "  deg 0            " << Table::fmt_count(isolated) << "  "
              << bar(static_cast<double>(isolated) / n) << "\n";
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k] == 0) continue;
    char range[32];
    std::snprintf(range, sizeof range, "[%llu, %llu)",
                  static_cast<unsigned long long>(EdgeId{1} << k),
                  static_cast<unsigned long long>(EdgeId{2} << k));
    std::printf("  deg %-12s %s  %s\n", range,
                Table::fmt_count(buckets[k]).c_str(),
                bar(static_cast<double>(buckets[k]) / n).c_str());
  }
}

void report(const Graph& g, const Options& opts) {
  const DegreeStats deg = compute_degree_stats(g, 4096);
  std::cout << "graph: " << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges" << (g.is_labeled() ? ", labeled" : "") << "\n"
            << "degrees: max " << deg.max_degree << ", mean "
            << Table::fmt(deg.mean_degree, 2) << ", median "
            << Table::fmt(deg.median_degree, 1) << "\n"
            << "raw CSR: " << Table::fmt_count(g.memory_bytes())
            << " bytes\n";
  print_degree_histogram(g);
  std::cout << "\n";

  static constexpr storage::Backend kBackends[] = {
      storage::Backend::kUncompressed, storage::Backend::kCompressed,
      storage::Backend::kSpill};
  Table table({"backend", "resident", "encoded", "ratio", "file bytes"});
  for (const storage::Backend b : kBackends) {
    const auto store = storage::GraphStore::build(Graph(g), policy_for(b, opts));
    const storage::StorageStats st = store->stats();
    table.add_row({storage::to_string(st.backend),
                   Table::fmt_count(st.resident_bytes),
                   Table::fmt_count(st.encoded_bytes),
                   Table::fmt(st.compression_ratio, 2),
                   Table::fmt_count(st.file_bytes)});
  }
  table.print(std::cout);
  std::cout << "(resident excludes the per-run decoded-list cache; the spill\n"
            << " row's resident set is its index plus the page-cache budget)\n";

  // What kAuto would pick for this graph under the flags given (the same
  // deterministic rule GraphSession applies: a budget forces spill, any
  // other non-empty graph is compressed).
  storage::StoragePolicy auto_policy = policy_for(storage::Backend::kAuto, opts);
  if (opts.has("budget"))
    auto_policy.memory_budget_bytes =
        static_cast<std::uint64_t>(opts.get_int("budget", 1 << 20));
  std::cout << "recommended backend: "
            << storage::to_string(storage::choose_backend(g, auto_policy))
            << "\n";
}

/// Every backend must serve byte-identical adjacency for every vertex.
int selftest() {
  const Graph g = make_barabasi_albert(600, 4, 7);
  static constexpr storage::Backend kBackends[] = {
      storage::Backend::kCompressed, storage::Backend::kSpill,
      storage::Backend::kAuto};
  for (const storage::Backend b : kBackends) {
    storage::StoragePolicy policy;
    policy.backend = b;
    if (b == storage::Backend::kSpill) {
      policy.memory_budget_bytes = 4096;  // a few 1 KiB pages resident
      policy.page_size = 1024;
    }
    const auto store = storage::GraphStore::build(Graph(g), policy);
    const auto lease = store->lease();
    const GraphView view = store->view();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto raw = g.neighbors(v);
      const auto got = view.neighbors(v);
      if (std::vector<VertexId>(raw.begin(), raw.end()) !=
          std::vector<VertexId>(got.begin(), got.end())) {
        std::cerr << "selftest: backend " << storage::to_string(b)
                  << " serves a different neighbor list for vertex " << v
                  << "\n";
        return 1;
      }
    }
    const storage::StorageStats st = store->stats();
    if (st.compression_ratio < 1.0) {
      std::cerr << "selftest: backend " << storage::to_string(b)
                << " expanded the graph (ratio "
                << st.compression_ratio << ")\n";
      return 1;
    }
  }
  std::cout << "selftest: all backends serve identical adjacency\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts(argc, argv);
    if (opts.has("help")) {
      print_usage();
      return 0;
    }
    opts.allow_only({"graph", "family", "vertices", "degree", "seed", "block",
                     "budget", "page", "selftest", "help"});
    if (opts.has("selftest")) return selftest();
    report(build_graph(opts), opts);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
