#include "testing/minimize.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "testing/lanes.hpp"
#include "util/check.hpp"

namespace stm::harness {

namespace {

/// The subgraph induced on the kept vertices, relabeled compactly. Labels
/// follow their vertices.
Graph induced_subgraph(const Graph& g, const std::vector<bool>& keep) {
  std::vector<VertexId> new_id(g.num_vertices(), kNoVertex);
  VertexId next = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (keep[v]) new_id[v] = next++;
  GraphBuilder builder(next);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (!keep[u]) continue;
    for (VertexId v : g.neighbors(u))
      if (u < v && keep[v]) builder.add_edge(new_id[u], new_id[v]);
  }
  Graph sub = builder.build();
  if (g.is_labeled() && next > 0) {
    std::vector<Label> labels(next);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (keep[v]) labels[new_id[v]] = g.label(v);
    sub = sub.with_labels(std::move(labels));
  }
  return sub;
}

/// ddmin-style pass over `count` items (vertices or edges): drops chunks of
/// them while the case keeps failing, halving the chunk size whenever a
/// sweep drops nothing. `without(c, begin, end)` is `c` minus items
/// [begin, end); a drop shifts later items down, so the window is retried.
template <class Without>
bool ddmin(TestCase& c, const FailurePredicate& fails, std::size_t count,
           Without without) {
  bool progress = false;
  for (std::size_t chunk = std::max<std::size_t>(1, count / 2); chunk >= 1;) {
    bool removed_any = false;
    for (std::size_t start = 0; start < count;) {
      const std::size_t end = std::min(count, start + chunk);
      TestCase candidate = without(c, start, end);
      if (fails(candidate)) {
        c = std::move(candidate);
        count -= end - start;
        progress = removed_any = true;
      } else {
        start += chunk;
      }
    }
    if (!removed_any) chunk /= 2;
  }
  return progress;
}

bool shrink_vertices(TestCase& c, const FailurePredicate& fails) {
  return ddmin(c, fails, c.graph.num_vertices(),
               [](const TestCase& t, std::size_t begin, std::size_t end) {
                 std::vector<bool> keep(t.graph.num_vertices(), true);
                 for (std::size_t v = begin; v < end; ++v) keep[v] = false;
                 TestCase candidate = t;
                 candidate.graph = induced_subgraph(t.graph, keep);
                 return candidate;
               });
}

/// Edge drops keep every vertex (and its label).
bool shrink_edges(TestCase& c, const FailurePredicate& fails) {
  return ddmin(c, fails, c.graph.num_edges(),
               [](const TestCase& t, std::size_t begin, std::size_t end) {
                 auto edges = edge_list(t.graph);
                 edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(begin),
                             edges.begin() + static_cast<std::ptrdiff_t>(end));
                 GraphBuilder builder(t.graph.num_vertices());
                 for (const auto& [u, v] : edges) builder.add_edge(u, v);
                 TestCase candidate = t;
                 candidate.graph = builder.build();
                 if (t.graph.is_labeled() && t.graph.num_vertices() > 0) {
                   candidate.graph =
                       candidate.graph.with_labels(t.graph.labels());
                 }
                 return candidate;
               });
}

/// Pattern with vertex `drop` removed (edges re-indexed, labels follow).
Pattern drop_pattern_vertex(const Pattern& p, std::size_t drop) {
  std::vector<std::pair<int, int>> edges;
  for (auto [u, v] : p.edges()) {
    if (u == static_cast<int>(drop) || v == static_cast<int>(drop)) continue;
    edges.emplace_back(u - (u > static_cast<int>(drop) ? 1 : 0),
                       v - (v > static_cast<int>(drop) ? 1 : 0));
  }
  std::vector<Label> labels = p.label_vector();
  if (!labels.empty()) labels.erase(labels.begin() + static_cast<long>(drop));
  return Pattern(p.size() - 1, edges, std::move(labels));
}

/// Drops pattern vertices (the larger reduction) and then pattern edges,
/// one at a time, while the pattern stays connected and the case fails.
bool shrink_pattern(TestCase& c, const FailurePredicate& fails) {
  bool progress = false;
  const auto drop_each = [&](auto count, auto without) {
    for (std::size_t i = 0; i < count();) {
      Pattern smaller = without(i);
      if (smaller.is_connected()) {
        TestCase candidate = c;
        candidate.pattern = std::move(smaller);
        if (fails(candidate)) {
          c = std::move(candidate);
          progress = true;
          i = 0;
          continue;
        }
      }
      ++i;
    }
  };
  drop_each([&] { return c.pattern.size() > 2 ? c.pattern.size() : 0; },
            [&](std::size_t v) { return drop_pattern_vertex(c.pattern, v); });
  drop_each(
      [&] { return c.pattern.num_edges() > 1 ? c.pattern.num_edges() : 0; },
      [&](std::size_t e) {
        auto edges = c.pattern.edges();
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
        return Pattern(c.pattern.size(), edges, c.pattern.label_vector());
      });
  return progress;
}

}  // namespace

MinimizeResult minimize(const TestCase& failing, const FailurePredicate& fails,
                        const MinimizeOptions& opts) {
  STM_CHECK(static_cast<bool>(fails));
  MinimizeResult result;
  result.reduced = failing;
  // Every probe counts against the budget; once it is spent, probes report
  // "not failing" and the passes wind down without shrinking further.
  const auto exhausted = [&] { return result.probes >= opts.max_probes; };
  const FailurePredicate probe = [&](const TestCase& candidate) {
    if (exhausted()) return false;
    ++result.probes;
    // ddmin "unresolved" outcome: a shrink can produce a candidate the
    // engines reject outright (e.g. a labeled pattern over a graph whose
    // labeled vertices were all removed). Such a probe is not the failure
    // being chased, so the chunk is kept.
    try {
      return fails(candidate);
    } catch (const std::exception&) {
      return false;
    }
  };
  result.still_failing = probe(failing);
  for (std::uint32_t round = 0; result.still_failing && round < opts.max_rounds;
       ++round) {
    ++result.rounds;
    bool progress = shrink_vertices(result.reduced, probe);
    progress |= shrink_edges(result.reduced, probe);
    progress |= shrink_pattern(result.reduced, probe);
    for (const Lane* lane : lanes_by_rank()) {
      if (lane->shrink != nullptr)
        progress |= lane->shrink(result.reduced, probe);
    }
    if (!progress || exhausted()) break;
  }
  return result;
}

}  // namespace stm::harness
