#include "dist/partition.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "dynamic/dynamic_graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm::dist {

const char* to_string(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kContiguous: return "contiguous";
    case PartitionStrategy::kDegreeBalanced: return "degree_balanced";
    case PartitionStrategy::kHash: return "hash";
    case PartitionStrategy::kInterleaved: return "interleaved";
  }
  return "unknown";
}

PartitionStrategy partition_strategy_from_string(const std::string& name) {
  // Accept the CLI-friendly hyphen spelling ("degree-balanced") too.
  std::string canon = name;
  std::replace(canon.begin(), canon.end(), '-', '_');
  for (std::size_t i = 0; i < kNumPartitionStrategies; ++i) {
    const auto s = static_cast<PartitionStrategy>(i);
    if (canon == to_string(s)) return s;
  }
  STM_CHECK_MSG(false, "unknown partition strategy: " << name);
}

namespace {

std::vector<std::uint32_t> assign_owners(const Graph& g,
                                         const PartitionConfig& cfg) {
  const VertexId n = g.num_vertices();
  const std::uint32_t s_count = cfg.num_shards;
  std::vector<std::uint32_t> owner(n, 0);
  switch (cfg.strategy) {
    case PartitionStrategy::kContiguous: {
      // Ranges [n*s/S, n*(s+1)/S).
      std::uint32_t s = 0;
      for (VertexId v = 0; v < n; ++v) {
        while (v >= static_cast<VertexId>(static_cast<std::uint64_t>(n) *
                                          (s + 1) / s_count))
          ++s;
        owner[v] = s;
      }
      break;
    }
    case PartitionStrategy::kDegreeBalanced: {
      // Greedy LPT: heaviest vertices first, each to the currently lightest
      // shard (degree + 1 so isolated vertices still spread out). Ties break
      // on the smallest shard id, so the assignment is deterministic.
      std::vector<VertexId> by_degree(n);
      std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
      std::stable_sort(by_degree.begin(), by_degree.end(),
                       [&](VertexId a, VertexId b) {
                         return g.degree(a) > g.degree(b);
                       });
      std::vector<std::uint64_t> load(s_count, 0);
      for (VertexId v : by_degree) {
        std::uint32_t best = 0;
        for (std::uint32_t s = 1; s < s_count; ++s)
          if (load[s] < load[best]) best = s;
        owner[v] = best;
        load[best] += g.degree(v) + 1;
      }
      break;
    }
    case PartitionStrategy::kHash: {
      for (VertexId v = 0; v < n; ++v) {
        std::uint64_t state = cfg.hash_salt ^ v;
        owner[v] = static_cast<std::uint32_t>(splitmix64(state) % s_count);
      }
      break;
    }
    case PartitionStrategy::kInterleaved: {
      for (VertexId v = 0; v < n; ++v) owner[v] = v % s_count;
      break;
    }
  }
  return owner;
}

/// Materializes one shard from the global adjacency in `view`.
std::shared_ptr<const Shard> build_shard(GraphView view,
                                         const std::vector<std::uint32_t>& owner,
                                         std::uint32_t id) {
  auto shard = std::make_shared<Shard>();
  shard->id = id;
  const VertexId n = view.num_vertices();
  std::vector<VertexId> local_of(n, kNoVertex);
  for (VertexId v = 0; v < n; ++v)
    if (owner[v] == id) {
      local_of[v] = shard->num_owned();
      shard->to_global.push_back(v);
    }

  GraphBuilder local_b(shard->num_owned());
  for (VertexId v : shard->to_global) {
    for (VertexId w : view.neighbors(v)) {
      if (owner[w] == id) {
        if (v < w) local_b.add_edge(local_of[v], local_of[w]);
      } else if (id < owner[w]) {
        // A cut edge belongs to its smaller endpoint shard and is visited
        // once from the owned side, so the normalized pair is unique.
        shard->cut_edges.emplace_back(std::min(v, w), std::max(v, w));
      }
    }
  }
  std::sort(shard->cut_edges.begin(), shard->cut_edges.end());

  shard->local = local_b.build();
  if (view.is_labeled()) {
    std::vector<Label> labels(shard->num_owned());
    for (VertexId l = 0; l < shard->num_owned(); ++l)
      labels[l] = view.label(shard->to_global[l]);
    shard->local = shard->local.with_labels(std::move(labels));
  }
  return shard;
}

/// Rebuilds the owner-major global cut-edge order from the per-shard lists.
void collect_cut_edges(Partition& p) {
  p.cut_edges.clear();
  for (const auto& shard : p.shards)
    p.cut_edges.insert(p.cut_edges.end(), shard->cut_edges.begin(),
                       shard->cut_edges.end());
}

}  // namespace

BalanceReport Partition::balance(const Graph& g) const {
  return balance_report(g, owner, config.num_shards);
}

Partition partition_graph(const Graph& g, const PartitionConfig& cfg) {
  STM_CHECK_MSG(cfg.num_shards >= 1, "a partition needs at least one shard");
  Partition p;
  p.config = cfg;
  p.num_vertices = g.num_vertices();
  p.num_edges = g.num_edges();
  p.owner = assign_owners(g, cfg);
  const GraphView view(g);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s)
    p.shards.push_back(build_shard(view, p.owner, s));
  collect_cut_edges(p);
  return p;
}

Partition refresh_partition(const Partition& p, GraphView view,
                            const DeltaEdges& delta,
                            std::vector<std::uint32_t>* touched) {
  STM_CHECK(view.num_vertices() == p.num_vertices);

  // A shard's local graph and cut edges read only its owned vertices'
  // adjacency, which a delta edge changes at its two endpoints.
  std::vector<bool> rebuild(p.num_shards(), false);
  for (const auto* edges : {&delta.inserted, &delta.deleted})
    for (const auto& [u, v] : *edges) {
      rebuild[p.owner_of(u)] = true;
      rebuild[p.owner_of(v)] = true;
    }

  Partition next;
  next.config = p.config;
  next.num_vertices = p.num_vertices;
  next.owner = p.owner;  // ownership is sticky
  next.num_edges = 0;
  next.shards.resize(p.shards.size());
  for (std::uint32_t s = 0; s < p.num_shards(); ++s) {
    if (rebuild[s]) {
      next.shards[s] = build_shard(view, next.owner, s);
      if (touched != nullptr) touched->push_back(s);
    } else {
      next.shards[s] = p.shards[s];
    }
  }
  collect_cut_edges(next);
  // Edge count of the refreshed version: intra edges plus cut edges.
  for (const auto& shard : next.shards)
    next.num_edges += shard->local.num_edges();
  next.num_edges += static_cast<EdgeId>(next.cut_edges.size());
  return next;
}

}  // namespace stm::dist
