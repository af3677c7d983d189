// Shared harness for the benchmark binaries.
//
// Every paper-table binary prints the same rows/series the corresponding
// paper table or figure reports, on the scaled-down dataset proxies
// (DESIGN.md §2). Simulated times are NOT comparable to the paper's RTX 3090
// numbers; the reproduced claims are orderings and rough factors
// (EXPERIMENTS.md). The micro-benchmarks share the update-batch generators
// and scratch directories below.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "pattern/queries.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace stm::bench {

/// Engine preset used by all benchmarks: an 82-SM device like the paper's
/// RTX 3090 with 8 resident warps per block. StopLevel/DetectLevel are
/// deepened from the paper's 2/1 to 4/2 because the proxy graphs' candidate
/// sets are ~100x smaller than the real datasets', so a proportionally
/// deeper split point is needed to keep steals worthwhile (DESIGN.md §6).
inline EngineConfig engine_preset() {
  EngineConfig cfg;
  cfg.device.num_blocks = 82;
  cfg.device.warps_per_block = 8;
  cfg.chunk_size = 2;
  cfg.stop_level = 4;
  cfg.detect_level = 2;
  cfg.unroll = 8;
  return cfg;
}

/// Standard benchmark options.
struct BenchArgs {
  double scale = 1.0;          // dataset scale multiplier
  std::size_t labels = 2;      // labels for labeled experiments
  bool quick = false;          // reduced grid for smoke runs
  bool full = false;           // widest grid
};

inline BenchArgs parse_args(int argc, char** argv,
                            double default_scale = 1.0) {
  Options opts(argc, argv);
  opts.allow_only({"scale", "labels", "quick", "full"});
  BenchArgs args;
  args.scale = opts.get_double("scale", default_scale);
  args.labels = static_cast<std::size_t>(opts.get_int("labels", 2));
  args.quick = opts.get_bool("quick", false);
  args.full = opts.get_bool("full", false);
  return args;
}

/// Milliseconds cell, paper-style: '×' = out of memory.
inline std::string ms_cell(double ms, bool oom = false) {
  if (oom) return "x (OOM)";
  return Table::fmt(ms, ms < 10 ? 3 : 1);
}

inline std::string speedup_cell(double base_ms, double ours_ms) {
  if (ours_ms <= 0) return "-";
  return Table::fmt(base_ms / ours_ms, 1) + "x";
}

/// Prints a geometric-mean summary line of collected speedups.
inline void print_speedup_summary(const std::string& label,
                                  const std::vector<double>& speedups) {
  if (speedups.empty()) return;
  std::vector<double> positive;
  for (double s : speedups)
    if (s > 0) positive.push_back(s);
  if (positive.empty()) return;
  auto mm = summarize(positive);
  std::printf("%s: geomean %.1fx, min %.1fx, max %.1fx (n=%zu)\n",
              label.c_str(), geometric_mean(positive), mm.min, mm.max,
              positive.size());
}

/// A valid random batch: random vertex pairs classified against the
/// current version (present -> delete, absent -> insert). On a sparse graph
/// almost every pair is an insertion.
inline UpdateBatch random_batch(const GraphSnapshot& snap, Rng& rng,
                                int num_edges) {
  const VertexId n = snap.num_vertices();
  UpdateBatch batch;
  for (int i = 0; i < num_edges; ++i) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto v = static_cast<VertexId>(rng() % n);
    if (u == v) continue;
    if (snap.has_edge(u, v)) {
      batch.deletions.emplace_back(u, v);
    } else {
      batch.insertions.emplace_back(u, v);
    }
  }
  return batch;
}

/// A balanced churn batch: `half` deletions of existing edges and `half`
/// insertions of absent ones, all distinct, endpoints drawn with
/// probability proportional to degree (so churn lands where the matches
/// are and the edge count stays flat).
inline UpdateBatch churn_batch(const GraphSnapshot& snap, Rng& rng,
                               std::size_t half) {
  const auto lease = snap.storage_lease();
  const GraphView g = snap.view();
  const VertexId n = g.num_vertices();
  EdgeId max_degree = 1;
  for (VertexId v = 0; v < n; ++v)
    max_degree = std::max(max_degree, g.degree(v));
  const auto pick = [&] {
    for (;;) {
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (rng.next_below(max_degree) < g.degree(v)) return v;
    }
  };
  std::set<std::pair<VertexId, VertexId>> used;
  UpdateBatch batch;
  while (batch.deletions.size() < half) {
    const VertexId u = pick();
    const auto nbrs = g.neighbors(u);
    const VertexId v = nbrs[rng.next_below(nbrs.size())];
    const auto e = std::minmax(u, v);
    if (used.insert(e).second) batch.deletions.push_back(e);
  }
  while (batch.insertions.size() < half) {
    const VertexId u = pick(), v = pick();
    if (u == v || g.has_edge(u, v)) continue;
    const auto e = std::minmax(u, v);
    if (used.insert(e).second) batch.insertions.push_back(e);
  }
  return batch;
}

/// The eight standing queries of the update_standing benchmark workload
/// (e2e_bench/), in its registration order.
inline const std::vector<std::pair<std::string, Pattern>>& standing_shapes() {
  static const std::vector<std::pair<std::string, Pattern>> shapes = {
      {"triangle", Pattern::parse("0-1,1-2,2-0")},
      {"4-cycle", Pattern::parse("0-1,1-2,2-3,3-0")},
      {"4-cycle-renumbered", Pattern::parse("0-2,2-1,1-3,3-0")},
      {"diamond", Pattern::parse("0-1,1-2,2-0,1-3,2-3")},
      {"tailed-triangle", Pattern::parse("0-1,1-2,2-0,2-3")},
      {"4-path", Pattern::parse("0-1,1-2,2-3")},
      {"5-cycle", Pattern::parse("0-1,1-2,2-3,3-4,4-0")},
      {query_name(6), query(6)}};
  return shapes;
}

/// A fresh, empty directory under the system temp dir, unique within the
/// process: stmatch-<tag>-<n>. The caller removes it.
inline std::string scratch_dir(const std::string& tag) {
  static std::atomic<std::uint64_t> counter{0};
  const std::filesystem::path p =
      std::filesystem::temp_directory_path() /
      ("stmatch-" + tag + "-" + std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

}  // namespace stm::bench
