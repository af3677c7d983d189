// Plain-text edge-list input (the SNAP repository format).
//
// Lines are `u v` pairs; `#` starts a comment. An optional label file has one
// `vertex label` pair per line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace stm {

/// What to do with duplicate edges and self-loops in the input. Real SNAP
/// dumps contain both (directed pairs listed in each direction, self-edges
/// from projection); silently folding them — the historic behavior — hides
/// data-quality problems from pipelines that care.
enum class EdgeListValidation : std::uint8_t {
  /// Drop duplicates/self-loops, report them in EdgeListStats.
  kLenient = 0,
  /// Raise check_error on the first duplicate or self-loop.
  kStrict,
};

struct EdgeListOptions {
  EdgeListValidation validation = EdgeListValidation::kLenient;
};

/// Data-quality report from a lenient load.
struct EdgeListStats {
  /// Edge lines parsed (comments/blanks excluded).
  std::size_t lines = 0;
  /// `u v` lines repeating an already-seen undirected edge (either
  /// orientation).
  std::size_t duplicate_edges = 0;
  /// `u u` lines.
  std::size_t self_loops = 0;
  /// Distinct undirected edges kept.
  std::size_t edges_kept = 0;
};

/// Parses an edge list from a stream. Throws check_error on malformed input;
/// under kStrict also on duplicates and self-loops. `stats` (optional)
/// receives the data-quality report.
Graph read_edge_list(std::istream& in, const EdgeListOptions& opts = {},
                     EdgeListStats* stats = nullptr);

/// Loads an edge-list file from disk.
Graph load_edge_list(const std::string& path, const EdgeListOptions& opts = {},
                     EdgeListStats* stats = nullptr);

}  // namespace stm
