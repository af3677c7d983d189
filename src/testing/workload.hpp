// Seeded workload generators for the conformance harness.
//
// A TestCase is one fully materialized (graph, pattern, plan options, engine
// configs) point of the configuration space the engines must agree on. The
// generators sample graph families chosen to stress different engine paths —
// uniform (ER), degree-skewed (power law / RMAT), bipartite, star-heavy
// (steal-path stress), and corner cases (tiny graphs, no edges, graphs
// smaller than the pattern, duplicate-edge/self-loop edge lists that must
// deduplicate) — plus connected patterns up to 6 vertices with symmetry-rich
// shapes, and uniform samples over the unroll/order/code-motion/mode knobs.
//
// Everything is a pure function of the seed: random_case(seed) is the unit
// of reproducibility that .repro files, CI failure messages and the
// minimizer all reference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/config.hpp"
#include "core/host_engine.hpp"
#include "dist/partition.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "pattern/pattern.hpp"
#include "pattern/plan.hpp"
#include "storage/store.hpp"
#include "util/rng.hpp"

namespace stm::harness {

/// Graph family of a generated case (recorded for triage / coverage stats).
enum class GraphFamily : std::uint8_t {
  kErdosRenyi = 0,
  kPowerLaw,   // Barabási–Albert / RMAT skew
  kBipartite,  // complete or sparse random bipartite
  kStarHeavy,  // few hubs with many leaves: steal-path stress
  kCorner,     // tiny / empty / sub-pattern-size / dedup corner cases
};
inline constexpr std::size_t kNumGraphFamilies = 5;

const char* to_string(GraphFamily family);
/// Inverse of to_string; throws check_error on unknown names.
GraphFamily graph_family_from_string(const std::string& name);

/// The generator's floors: graphs have at least kMinGraphVertices vertices
/// (corner cases aside) and sampled patterns at least 3.
inline constexpr VertexId kMinGraphVertices = 8;
inline constexpr std::size_t kMinPatternCap = 3;

struct WorkloadOptions {
  /// Graph size cap, >= kMinGraphVertices.
  VertexId max_vertices = 64;
  /// Pattern sizes sampled uniformly in [3, max_pattern_size]; a size-2
  /// (single-edge) pattern is mixed in occasionally as its own corner case.
  /// In [kMinPatternCap, kMaxPatternSize].
  std::size_t max_pattern_size = 6;
};

/// A connected pattern with at most opts.max_pattern_size vertices: random
/// tree-plus-extra-edges shapes mixed with symmetry-rich fixed shapes
/// (cliques, cycles, stars, complete bipartite). Also exercises the
/// disconnected-rejection contract: it occasionally builds a deliberately
/// disconnected pattern and verifies plan compilation rejects it with
/// check_error before resampling (a harness bug throws).
Pattern random_pattern(Rng& rng, const WorkloadOptions& opts = {});

/// `p` with labels drawn from `graph`'s label universe; unchanged (and no
/// draw made) when the graph is unlabeled.
Pattern label_for_graph(Rng& rng, const Graph& graph, Pattern p);

/// The undirected edges of `g` as (u, v) with u < v, in CSR order.
std::vector<std::pair<VertexId, VertexId>> edge_list(const Graph& g);

/// `g` replayed as one insertion batch over an edgeless base with the same
/// vertices and labels: the shape every standing query's baseline takes.
struct BatchReplay {
  std::shared_ptr<const GraphSnapshot> from;  // the edgeless version
  std::shared_ptr<const GraphSnapshot> to;    // `g`, published after it
  DeltaEdges applied;                         // empty for an edgeless `g`
};
BatchReplay replay_as_one_batch(const Graph& g);

/// One point of the configuration space.
struct TestCase {
  /// The seed this case was generated from (0 for hand-built repros).
  std::uint64_t seed = 0;
  GraphFamily family = GraphFamily::kCorner;
  Graph graph;
  Pattern pattern;
  PlanOptions plan;
  EngineConfig simt;
  HostEngineConfig host;
  // Lane knobs; lanes.cpp samples, checks, minimizes and serializes each.
  // The defaults are the simplest values: the lane is skipped or pinned to
  // the raw path, and writes no .repro section.
  /// Sharded lane: the partition the cross-shard coordinator runs over.
  std::uint32_t num_shards = 1;
  dist::PartitionStrategy shard_strategy = dist::PartitionStrategy::kContiguous;
  /// Storage lane: the backend the engines re-run over, and the spill
  /// backend's page-cache budget.
  storage::Backend storage_backend = storage::Backend::kUncompressed;
  std::uint64_t storage_budget_bytes = 0;
  /// ISA pin: the SIMD kernel table the whole oracle runs under.
  simd::IsaChoice forced_isa = simd::IsaChoice::kAuto;
  /// Multi-query lane: extra standing patterns registered next to `pattern`.
  std::vector<Pattern> mqo_patterns;
};

/// The fully derived case of `seed`: same seed, same case, bit for bit.
/// Pattern labels are only drawn when the graph is labeled; each lane's
/// knobs come from its own derived stream after the main one.
TestCase random_case(std::uint64_t seed, const WorkloadOptions& opts = {});

/// One-line human summary (family, sizes, knob settings) for logs.
std::string describe(const TestCase& c);

}  // namespace stm::harness
