// Standing-query index demo: thousands of registrations, one shared pass.
//
//   ./example_standing_index [n] [users] [batches]
//
//   n         Barabási–Albert graph size (default 1500)
//   users     standing registrations to simulate (default 300)
//   batches   update batches to stream (default 5)
//
// The duplicate-heavy regime of DESIGN.md §16: many "users" each register a
// standing alert drawn from a handful of pattern shapes (mostly relabeled
// triangles — isomorphic, not identical). The session deduplicates them
// into canonical groups in one shared-prefix plan trie, serves every
// registration after the first from a sibling's baseline (no full
// enumeration), and evaluates each update batch with ONE trie pass instead
// of one anchored sweep per registration — while every delivered count and
// embedding delta stays bit-identical to the per-pattern IncrementalMatcher
// and DeltaStreamer.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) try {
  using namespace stm;
  const VertexId n = argc > 1 ? static_cast<VertexId>(std::stoul(argv[1])) : 1500;
  const int users = argc > 2 ? std::stoi(argv[2]) : 300;
  const int batches = argc > 3 ? std::stoi(argv[3]) : 5;

  Graph g = make_barabasi_albert(n, 5, 42);
  std::printf("graph: %zu vertices, %zu edges\n",
              static_cast<std::size_t>(g.num_vertices()),
              static_cast<std::size_t>(g.num_edges()));

  GraphSession session(std::move(g));

  // The shape pool users draw from. Relabelings of the triangle are
  // isomorphic to it: the index folds them into one canonical group.
  const std::vector<Pattern> shapes = {
      Pattern::parse("0-1,1-2,2-0"),
      Pattern::parse("1-2,2-0,0-1"),  // triangle, relabeled
      Pattern::parse("0-2,2-1,1-0"),  // triangle again
      Pattern::parse("0-1,1-2,2-3"),  // 4-path
      Pattern::parse("0-1,0-2,0-3,1-2,1-3,2-3"),  // 4-clique
  };

  std::vector<std::uint64_t> ids;
  double first_full_ms = 0.0;
  int baseline_reuses = 0;
  Rng rng(7);
  for (int u = 0; u < users; ++u) {
    StandingQueryConfig sq;
    sq.pattern = shapes[rng() % shapes.size()];
    ids.push_back(session.register_standing_query(sq));
    const auto info = session.standing_query(ids.back());
    if (u == 0) first_full_ms = info->full_ms;
    if (info->full_ms == 0.0) ++baseline_reuses;
  }
  const mqo::IndexStats st = session.standing_index_stats();
  std::printf("registered %d standing queries -> %zu canonical groups\n",
              users, st.groups);
  std::printf("trie: %zu nodes, %zu terminals (no-sharing plans would need "
              "%llu nodes; shared-prefix ratio %.3f)\n",
              st.trie.nodes, st.trie.terminals,
              static_cast<unsigned long long>(st.trie.plan_positions),
              st.trie.shared_prefix_ratio);
  std::printf("first registration enumerated the graph in %.2f ms; %d of %d "
              "rode an isomorphic sibling's baseline (no enumeration)\n\n",
              first_full_ms, baseline_reuses, users);

  // One embedding-level subscriber on top of the counts: exact added /
  // retracted matches per batch, from the same shared pass.
  StandingQueryConfig watcher;
  watcher.pattern = shapes[0];
  watcher.on_delta = [](const StandingQueryDelta& d) {
    std::printf("  watcher: +%zu / -%zu triangle embeddings (%.3f ms)\n",
                d.added.size(), d.retracted.size(), d.delta_ms);
  };
  ids.push_back(session.register_standing_query(watcher));

  for (int b = 0; b < batches; ++b) {
    UpdateBatch batch;
    for (int i = 0; i < 24; ++i) {
      const auto u = static_cast<VertexId>(rng() % n);
      const auto v = static_cast<VertexId>(rng() % n);
      if (u != v) batch.insertions.emplace_back(u, v);
    }
    const UpdateOutcome out = session.apply_updates(std::move(batch));
    std::printf("batch %d: epoch %llu, %zu standing deltas in %.3f ms "
                "(one shared pass)\n",
                b, static_cast<unsigned long long>(out.epoch),
                out.updates.size(), out.incremental_ms);
  }

  const auto tri = session.standing_query(ids.front());
  std::printf("\nstanding triangle count @ epoch %llu: %llu\n",
              static_cast<unsigned long long>(tri->epoch),
              static_cast<unsigned long long>(tri->count));

  for (const std::uint64_t id : ids) session.unregister_standing_query(id);
  const mqo::IndexStats drained = session.standing_index_stats();
  std::printf("after deregistration: %zu registrations, %zu trie nodes\n",
              drained.registrations, drained.trie.nodes);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
