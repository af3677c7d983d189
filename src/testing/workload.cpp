#include "testing/workload.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "pattern/matching_order.hpp"
#include "testing/lanes.hpp"
#include "util/check.hpp"

namespace stm::harness {

const char* to_string(GraphFamily family) {
  switch (family) {
    case GraphFamily::kErdosRenyi:
      return "erdos-renyi";
    case GraphFamily::kPowerLaw:
      return "power-law";
    case GraphFamily::kBipartite:
      return "bipartite";
    case GraphFamily::kStarHeavy:
      return "star-heavy";
    case GraphFamily::kCorner:
      return "corner";
  }
  return "unknown";
}

GraphFamily graph_family_from_string(const std::string& name) {
  for (std::size_t i = 0; i < kNumGraphFamilies; ++i) {
    const auto family = static_cast<GraphFamily>(i);
    if (name == to_string(family)) return family;
  }
  STM_CHECK_MSG(false, "unknown graph family '" << name << "'");
}

namespace {

Graph random_bipartite(Rng& rng, VertexId n) {
  const VertexId a = 2 + static_cast<VertexId>(rng.next_below(n / 2));
  const VertexId b = std::max<VertexId>(2, n - a);
  if (rng.next_bool(0.35)) return make_complete_bipartite(a, b);
  // Sparse random bipartite: edges only across the parts.
  GraphBuilder builder(a + b);
  const double p = 0.15 + 0.35 * rng.next_double();
  for (VertexId u = 0; u < a; ++u)
    for (VertexId v = a; v < a + b; ++v)
      if (rng.next_bool(p)) builder.add_edge(u, v);
  return builder.build();
}

Graph random_star_heavy(Rng& rng, VertexId n) {
  // A few hubs own most of the adjacency; sprinkled rim edges create the
  // deep-but-narrow subtrees that exercise the stealing state machine.
  const VertexId hubs = 1 + static_cast<VertexId>(rng.next_below(3));
  GraphBuilder builder(n);
  for (VertexId h = 0; h < hubs && h < n; ++h)
    for (VertexId v = hubs; v < n; ++v)
      if (rng.next_bool(0.7)) builder.add_edge(h, v);
  const std::uint64_t rim = rng.next_below(n);
  for (std::uint64_t i = 0; i < rim; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u != v) builder.add_edge(u, v);
  }
  return builder.build();
}

Graph random_corner(Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:  // edgeless: every engine must count zero for edged patterns
      return Graph(std::vector<EdgeId>(
                       1 + 1 + rng.next_below(6), 0),
                   {});
    case 1:  // smaller than most patterns
      return make_clique(2 + static_cast<VertexId>(rng.next_below(3)));
    case 2:  // multigraph-adjacent: duplicate edges and self-loops fed
             // through the builder must deduplicate to a simple graph
    {
      const auto n = static_cast<VertexId>(4 + rng.next_below(8));
      GraphBuilder builder(n);
      const std::uint64_t tokens = 3 * n;
      for (std::uint64_t i = 0; i < tokens; ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(n));
        const auto v = static_cast<VertexId>(rng.next_below(n));
        builder.add_edge(u, v);  // self-loops dropped, duplicates deduped
        if (rng.next_bool(0.5)) builder.add_edge(v, u);  // mirrored duplicate
      }
      return builder.build();
    }
    case 3:
      return make_path(2 + static_cast<VertexId>(rng.next_below(10)));
    case 4:
      return make_cycle(3 + static_cast<VertexId>(rng.next_below(9)));
    default:
      return make_grid(2 + static_cast<VertexId>(rng.next_below(4)),
                       2 + static_cast<VertexId>(rng.next_below(4)));
  }
}

/// A deliberately disconnected pattern (two cliques with no bridge).
Pattern disconnected_pattern(Rng& rng) {
  const std::size_t a = 2 + rng.next_below(2);  // 2..3
  const std::size_t b = 2;
  std::vector<std::pair<int, int>> edges;
  for (std::size_t u = 0; u < a; ++u)
    for (std::size_t v = u + 1; v < a; ++v)
      edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
  edges.emplace_back(static_cast<int>(a), static_cast<int>(a + 1));
  return Pattern(a + b, edges);
}

/// Symmetry-rich fixed shapes: large automorphism groups stress the
/// symmetry-breaking constraints and the |Aut| bookkeeping.
Pattern symmetric_pattern(Rng& rng, std::size_t size) {
  std::vector<std::pair<int, int>> edges;
  switch (rng.next_below(4)) {
    case 0:  // clique
      for (std::size_t u = 0; u < size; ++u)
        for (std::size_t v = u + 1; v < size; ++v)
          edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
      break;
    case 1:  // cycle
      if (size < 3) return Pattern(2, {{0, 1}});
      for (std::size_t u = 0; u < size; ++u)
        edges.emplace_back(static_cast<int>(u),
                           static_cast<int>((u + 1) % size));
      break;
    case 2:  // star
      for (std::size_t v = 1; v < size; ++v)
        edges.emplace_back(0, static_cast<int>(v));
      break;
    default: {  // complete bipartite
      const std::size_t a = 1 + rng.next_below(size - 1);
      for (std::size_t u = 0; u < a; ++u)
        for (std::size_t v = a; v < size; ++v)
          edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
      break;
    }
  }
  return Pattern(size, edges);
}

/// Random connected pattern: a random tree plus extra edges.
Pattern tree_plus_edges(Rng& rng, std::size_t size) {
  std::vector<std::pair<int, int>> edges;
  for (std::size_t v = 1; v < size; ++v)
    edges.emplace_back(static_cast<int>(rng.next_below(v)),
                       static_cast<int>(v));
  for (std::size_t u = 0; u < size; ++u)
    for (std::size_t v = u + 1; v < size; ++v) {
      const bool tree_edge =
          std::find(edges.begin(), edges.end(),
                    std::make_pair(static_cast<int>(u), static_cast<int>(v))) !=
          edges.end();
      if (!tree_edge && rng.next_bool(0.25))
        edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
    }
  return Pattern(size, edges);
}

/// Samples c.graph and c.family; 40% of the graphs are labeled.
void random_graph(Rng& rng, const WorkloadOptions& opts, TestCase& c) {
  STM_CHECK(opts.max_vertices >= kMinGraphVertices);
  const auto n = static_cast<VertexId>(
      kMinGraphVertices +
      rng.next_below(opts.max_vertices - kMinGraphVertices + 1));
  // Family mix: weighted toward the random families, with a steady trickle
  // of corner cases.
  const std::uint64_t pick = rng.next_below(10);
  if (pick < 3) {
    c.family = GraphFamily::kErdosRenyi;
    c.graph = make_erdos_renyi(n, 0.05 + 0.25 * rng.next_double(), rng());
  } else if (pick < 6) {
    c.family = GraphFamily::kPowerLaw;
    if (rng.next_bool(0.5)) {
      c.graph = make_barabasi_albert(
          n, 1 + static_cast<VertexId>(rng.next_below(4)), rng());
    } else {
      c.graph = make_rmat(5 + static_cast<int>(rng.next_below(2)),
                          3.0 + 3.0 * rng.next_double(), 0.45, 0.22, 0.22,
                          rng());
    }
  } else if (pick < 8) {
    c.family = GraphFamily::kBipartite;
    c.graph = random_bipartite(rng, std::max<VertexId>(n, 6));
  } else if (pick < 9) {
    c.family = GraphFamily::kStarHeavy;
    c.graph = random_star_heavy(rng, std::max<VertexId>(n / 2, 8));
  } else {
    c.family = GraphFamily::kCorner;
    c.graph = random_corner(rng);
  }
  if (c.graph.num_vertices() > 0 && rng.next_bool(0.4)) {
    const std::size_t num_labels = 2 + rng.next_below(3);
    c.graph = with_random_labels(c.graph, num_labels, rng());
  }
}

/// The matching-semantics knobs (induced / count mode / code motion).
PlanOptions random_plan_options(Rng& rng) {
  PlanOptions plan;
  plan.induced = rng.next_bool(0.3) ? Induced::kVertex : Induced::kEdge;
  plan.count_mode = rng.next_bool(0.3) ? CountMode::kUniqueSubgraphs
                                       : CountMode::kEmbeddings;
  plan.code_motion = !rng.next_bool(0.25);
  return plan;
}

/// SIMT device shape, unroll, chunking and steal knobs. The v-range fields
/// stay at full coverage (the oracle expects complete counts).
EngineConfig random_engine_config(Rng& rng) {
  EngineConfig cfg;
  cfg.device.num_blocks = 1 + static_cast<std::uint32_t>(rng.next_below(8));
  cfg.device.warps_per_block =
      1 + static_cast<std::uint32_t>(rng.next_below(6));
  cfg.unroll = 1u << rng.next_below(4);  // 1, 2, 4, 8
  cfg.chunk_size = 1 + static_cast<std::uint32_t>(rng.next_below(12));
  cfg.local_steal = rng.next_bool(0.7);
  cfg.global_steal = rng.next_bool(0.7);
  cfg.stop_level = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  cfg.detect_level = static_cast<std::uint32_t>(rng.next_below(3));
  return cfg;
}

/// Host thread count and chunk size.
HostEngineConfig random_host_config(Rng& rng) {
  HostEngineConfig cfg;
  cfg.num_threads = 1 + rng.next_below(4);
  cfg.chunk_size = 1 + static_cast<VertexId>(rng.next_below(12));
  return cfg;
}

}  // namespace

Pattern random_pattern(Rng& rng, const WorkloadOptions& opts) {
  STM_CHECK(opts.max_pattern_size >= kMinPatternCap &&
            opts.max_pattern_size <= kMaxPatternSize);
  // Disconnected-rejection probe: plan compilation must refuse disconnected
  // patterns. Running it inside the generator keeps the contract under the
  // same fuzz pressure as the positive paths.
  if (rng.next_bool(0.05)) {
    const Pattern bad = disconnected_pattern(rng);
    bool rejected = false;
    try {
      (void)reorder_for_matching(bad);
    } catch (const check_error&) {
      rejected = true;
    }
    STM_CHECK_MSG(rejected, "disconnected pattern '"
                                << bad.to_string()
                                << "' was not rejected by plan compilation");
  }
  if (rng.next_bool(0.08)) return Pattern(2, {{0, 1}});  // single edge
  const std::size_t size = 3 + rng.next_below(opts.max_pattern_size - 2);
  Pattern p = rng.next_bool(0.35) ? symmetric_pattern(rng, size)
                                  : tree_plus_edges(rng, size);
  STM_CHECK(p.is_connected());
  return p;
}

Pattern label_for_graph(Rng& rng, const Graph& graph, Pattern p) {
  if (!graph.is_labeled()) return p;
  std::vector<Label> labels(p.size());
  for (auto& l : labels)
    l = static_cast<Label>(
        rng.next_below(std::max<std::size_t>(graph.num_labels(), 1)));
  return p.with_labels(labels);
}

std::vector<std::pair<VertexId, VertexId>> edge_list(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  return edges;
}

BatchReplay replay_as_one_batch(const Graph& g) {
  MutableGraph graph(Graph(
      std::vector<EdgeId>(static_cast<std::size_t>(g.num_vertices()) + 1, 0),
      {}, g.labels()));
  UpdateBatch batch;
  batch.insertions = edge_list(g);
  auto from = graph.snapshot();
  ApplyResult applied = graph.apply(batch);
  return {std::move(from), std::move(applied.snapshot),
          std::move(applied.applied)};
}

TestCase random_case(std::uint64_t seed, const WorkloadOptions& opts) {
  Rng rng(seed);
  TestCase c;
  c.seed = seed;
  random_graph(rng, opts, c);
  c.pattern = label_for_graph(rng, c.graph, random_pattern(rng, opts));
  c.plan = random_plan_options(rng);
  c.simt = random_engine_config(rng);
  c.host = random_host_config(rng);
  // Lane knobs after everything else, each from its own derived stream: the
  // main stream's draws are untouched and lanes never perturb each other.
  for (const Lane& lane : lanes()) {
    if (lane.sample == nullptr) continue;
    Rng lane_rng(seed ^ lane.salt);
    lane.sample(lane_rng, opts, c);
  }
  return c;
}

std::string describe(const TestCase& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " family=" << to_string(c.family)
     << " n=" << c.graph.num_vertices() << " m=" << c.graph.num_edges()
     << (c.graph.is_labeled() ? " labeled" : "") << " pattern="
     << (c.pattern.size() == 0 ? std::string("<empty>") : c.pattern.to_string())
     << " k=" << c.pattern.size()
     << " induced=" << (c.plan.induced == Induced::kVertex ? "vertex" : "edge")
     << " mode="
     << (c.plan.count_mode == CountMode::kUniqueSubgraphs ? "unique"
                                                          : "embeddings")
     << " code_motion=" << (c.plan.code_motion ? 1 : 0)
     << " unroll=" << c.simt.unroll << " blocks=" << c.simt.device.num_blocks
     << " wpb=" << c.simt.device.warps_per_block
     << " steal=" << (c.simt.local_steal ? 1 : 0)
     << (c.simt.global_steal ? 1 : 0) << " threads=" << c.host.num_threads;
  for (const Lane& lane : lanes())
    if (lane.describe != nullptr) lane.describe(os, c);
  return os.str();
}

}  // namespace stm::harness
