// Query service layer demo: one GraphSession serving a stream of queries.
//
//   ./example_service_demo [dataset] [scale]
//
//   dataset   skewed proxy name (enron, youtube, mico, livejournal, orkut;
//             default enron)
//   scale     proxy scale factor in (0, 1] (default 0.25)
//
// Shows the pieces working together: repeated queries hitting the plan
// cache, a renumbered pattern sharing a cached plan, a deliberately
// tight deadline interrupting a heavy query with a partial count, and the
// session's metrics exported as JSON and Prometheus text.
#include <cstdio>
#include <string>

#include "graph/datasets.hpp"
#include "pattern/queries.hpp"
#include "service/service.hpp"

int main(int argc, char** argv) try {
  using namespace stm;
  const std::string dataset = argc > 1 ? argv[1] : "enron";
  const double scale = argc > 2 ? std::stod(argv[2]) : 0.25;

  Graph g = make_skewed_dataset(dataset, scale);
  std::printf("dataset %s (scale %.2f): %zu vertices, %zu edges\n\n",
              dataset.c_str(), scale, static_cast<std::size_t>(g.num_vertices()),
              static_cast<std::size_t>(g.num_edges()));

  SessionConfig cfg;
  cfg.max_concurrent_queries = 4;
  GraphSession session(std::move(g), cfg);

  auto show = [](const char* label, const QueryResult& r) {
    std::printf("%-34s %-18s count=%-12llu total=%8.2f ms  cache_%s\n", label,
                to_string(r.status), static_cast<unsigned long long>(r.count),
                r.total_ms, r.plan_cache_hit ? "hit" : "miss");
  };

  // Repeated queries: the first compiles a plan, repeats reuse it.
  for (int rep = 0; rep < 3; ++rep) {
    QueryRequest req;
    req.pattern = query(23);
    req.deadline_ms = -1.0;
    show(rep == 0 ? "q23 (cold)" : "q23 (repeat)", session.run(std::move(req)));
  }

  // A renumbered pattern shares the cached plan when it reorders to the
  // same matching order: this one only moves q23's missing edge.
  {
    QueryRequest req;
    req.pattern = query(23).relabeled({6, 4, 2, 0, 1, 3, 5});
    req.deadline_ms = -1.0;
    show("q23 renumbered (isomorphic)", session.run(std::move(req)));
  }

  // A heavy query under a tight deadline: interrupted cooperatively, the
  // partial count and stats survive.
  {
    QueryRequest req;
    req.pattern = query(17);
    req.deadline_ms = 250.0;
    show("q17, 250 ms deadline", session.run(std::move(req)));
  }

  // A mixed burst through the dispatcher.
  std::vector<std::future<QueryResult>> burst;
  for (int q : {23, 23, 16, 16, 8, 8}) {
    QueryRequest req;
    req.pattern = query(q);
    req.deadline_ms = -1.0;
    burst.push_back(session.submit(std::move(req)));
  }
  for (auto& f : burst) f.get();
  std::printf("burst of 6 queries drained\n");

  const PlanCacheStats cache = session.plan_cache().stats();
  std::printf("\nplan cache: %llu hits / %llu misses (hit rate %.0f%%)\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              100.0 * cache.hit_rate());

  std::printf("\n--- metrics (JSON) ---\n%s\n", session.metrics().to_json().c_str());
  std::printf("--- metrics (Prometheus) ---\n%s",
              session.metrics().to_prometheus().c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
