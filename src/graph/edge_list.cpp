#include "graph/edge_list.hpp"

#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/check.hpp"

namespace stm {

namespace {

/// Strict decimal vertex-id parser. `operator>>` into an integer would
/// accept junk like "12abc" (stopping at 'a') or silently saturate huge
/// values; corrupt input must fail loudly instead of building a wrong graph.
VertexId parse_vertex_id(const std::string& token, std::size_t line_no) {
  STM_CHECK_MSG(token.front() != '-',
                "edge list line " << line_no << ": negative vertex id '"
                                  << token << "'");
  std::uint64_t value = 0;
  for (char c : token) {
    STM_CHECK_MSG(c >= '0' && c <= '9', "edge list line "
                                            << line_no
                                            << ": expected a vertex id, got '"
                                            << token << "'");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    STM_CHECK_MSG(value < kMaxVertices, "edge list line "
                                            << line_no << ": vertex id '"
                                            << token << "' out of range");
  }
  return static_cast<VertexId>(value);
}

}  // namespace

Graph read_edge_list(std::istream& in, const EdgeListOptions& opts,
                     EdgeListStats* stats) {
  GraphBuilder builder;
  EdgeListStats local;
  // Undirected dedupe key; SNAP dumps list directed pairs both ways, so
  // canonicalize to (min, max) before hashing.
  std::unordered_set<std::uint64_t> seen;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string tok_u, tok_v, extra;
    if (!(ls >> tok_u)) continue;  // blank/comment line
    STM_CHECK_MSG(static_cast<bool>(ls >> tok_v),
                  "edge list line " << line_no << ": expected two vertex ids");
    const VertexId u = parse_vertex_id(tok_u, line_no);
    const VertexId v = parse_vertex_id(tok_v, line_no);
    STM_CHECK_MSG(!(ls >> extra),
                  "edge list line " << line_no << ": trailing tokens");
    ++local.lines;
    if (u == v) {
      STM_CHECK_MSG(opts.validation != EdgeListValidation::kStrict,
                    "edge list line " << line_no << ": self-loop " << u << " "
                                      << v);
      ++local.self_loops;
      continue;
    }
    const VertexId lo = u < v ? u : v;
    const VertexId hi = u < v ? v : u;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(lo) << 32) | static_cast<std::uint64_t>(hi);
    if (!seen.insert(key).second) {
      STM_CHECK_MSG(opts.validation != EdgeListValidation::kStrict,
                    "edge list line " << line_no << ": duplicate edge " << u
                                      << " " << v);
      ++local.duplicate_edges;
      continue;
    }
    builder.add_edge(u, v);
  }
  local.edges_kept = seen.size();
  if (stats != nullptr) *stats = local;
  return builder.build();
}

Graph load_edge_list(const std::string& path, const EdgeListOptions& opts,
                     EdgeListStats* stats) {
  std::ifstream in(path);
  STM_CHECK_MSG(in.good(), "cannot open edge list file: " << path);
  return read_edge_list(in, opts, stats);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# stmatch edge list: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

}  // namespace stm
