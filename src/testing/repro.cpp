#include "testing/repro.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "testing/lanes.hpp"

namespace stm::harness {

namespace {

constexpr const char* kMagic = "stmatch-repro";
constexpr int kVersion = 1;
constexpr PatternKeys kPatternKeys = {"pattern", "pe", "plabels"};

void write_labels(std::ostream& os, const char* key,
                  const std::vector<Label>& labels) {
  os << key;
  for (const Label l : labels) os << " " << +l;
  os << "\n";
}

/// The optional `key l...` line of `count` labels after a graph or pattern;
/// empty when absent.
std::vector<Label> read_labels(ReproReader& reader, const char* key,
                               std::size_t count) {
  if (!reader.next()) return {};
  if (!reader.key_is(key)) {
    reader.unread();
    return {};
  }
  reader.expect_arity(count);
  std::vector<Label> labels(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t value = reader.u64(i + 1);
    STM_CHECK_MSG(value < kMaxLabels, "repro: label " << value
                                                      << " out of range in \""
                                                      << reader.raw() << "\"");
    labels[i] = static_cast<Label>(value);
  }
  return labels;
}

}  // namespace

void write_pattern(std::ostream& os, const PatternKeys& keys,
                   const Pattern& p) {
  const auto edges = p.edges();
  os << keys.size << " " << p.size() << " " << edges.size() << "\n";
  for (const auto& [u, v] : edges)
    os << keys.edge << " " << u << " " << v << "\n";
  if (p.is_labeled()) write_labels(os, keys.labels, p.label_vector());
}

Pattern read_pattern(ReproReader& reader, const PatternKeys& keys,
                     std::size_t min_size) {
  reader.expect_next(keys.size, 2);
  const std::uint64_t n = reader.u64(1);
  const std::uint64_t m = reader.u64(2);
  STM_CHECK_MSG(n >= min_size && n <= kMaxPatternSize,
                "repro: " << keys.size << " size " << n << " out of range");
  std::vector<std::pair<int, int>> edges;
  for (std::uint64_t i = 0; i < m; ++i) {
    reader.expect_next(keys.edge, 2);
    const std::uint64_t u = reader.u64(1);
    const std::uint64_t v = reader.u64(2);
    STM_CHECK_MSG(u < n && v < n && u != v,
                  "repro: bad pattern edge in \"" << reader.raw() << "\"");
    edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
  }
  return Pattern(static_cast<std::size_t>(n), edges,
                 read_labels(reader, keys.labels, n));
}

std::string to_repro(const TestCase& c) {
  std::ostringstream os;
  os << kMagic << " " << kVersion << "\n";
  os << "seed " << c.seed << "\n";
  os << "family " << to_string(c.family) << "\n";
  os << "graph " << c.graph.num_vertices() << " " << c.graph.num_edges()
     << "\n";
  for (const auto& [u, v] : edge_list(c.graph))
    os << "e " << u << " " << v << "\n";
  if (c.graph.is_labeled()) write_labels(os, "labels", c.graph.labels());
  write_pattern(os, kPatternKeys, c.pattern);

  os << "plan " << (c.plan.induced == Induced::kVertex ? "vertex" : "edge")
     << " "
     << (c.plan.count_mode == CountMode::kUniqueSubgraphs ? "unique"
                                                          : "embeddings")
     << " " << (c.plan.code_motion ? 1 : 0) << "\n";
  os << "simt " << c.simt.device.num_blocks << " "
     << c.simt.device.warps_per_block << " " << c.simt.unroll << " "
     << c.simt.chunk_size << " " << (c.simt.local_steal ? 1 : 0) << " "
     << (c.simt.global_steal ? 1 : 0) << " " << c.simt.stop_level << " "
     << c.simt.detect_level << "\n";
  os << "host " << c.host.num_threads << " " << c.host.chunk_size << "\n";
  for (const Lane* lane : lanes_by_rank())
    if (lane->write != nullptr) lane->write(os, c);
  os << "end\n";
  return os.str();
}

TestCase from_repro(const std::string& text) {
  ReproReader reader(text);

  reader.expect_next(kMagic, 1);
  STM_CHECK_MSG(reader.u64(1) == static_cast<std::uint64_t>(kVersion),
                "repro: unsupported version in \"" << reader.raw() << "\"");

  TestCase c;
  reader.expect_next("seed", 1);
  c.seed = reader.u64(1);
  reader.expect_next("family", 1);
  c.family = graph_family_from_string(reader.tokens()[1]);

  reader.expect_next("graph", 2);
  const std::uint64_t n = reader.u64(1);
  const std::uint64_t m = reader.u64(2);
  GraphBuilder builder(static_cast<VertexId>(n));
  for (std::uint64_t i = 0; i < m; ++i) {
    reader.expect_next("e", 2);
    const std::uint64_t u = reader.u64(1);
    const std::uint64_t v = reader.u64(2);
    STM_CHECK_MSG(u < n && v < n, "repro: edge endpoint out of range in \""
                                      << reader.raw() << "\"");
    builder.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  c.graph = builder.build();
  std::vector<Label> labels = read_labels(reader, "labels", n);
  if (!labels.empty()) c.graph = c.graph.with_labels(std::move(labels));
  c.pattern = read_pattern(reader, kPatternKeys, 1);

  reader.expect_next("plan", 3);
  const std::string& induced = reader.tokens()[1];
  STM_CHECK_MSG(induced == "edge" || induced == "vertex",
                "repro: unknown induced mode in \"" << reader.raw() << "\"");
  c.plan.induced = induced == "vertex" ? Induced::kVertex : Induced::kEdge;
  const std::string& mode = reader.tokens()[2];
  STM_CHECK_MSG(mode == "embeddings" || mode == "unique",
                "repro: unknown count mode in \"" << reader.raw() << "\"");
  c.plan.count_mode = mode == "unique" ? CountMode::kUniqueSubgraphs
                                       : CountMode::kEmbeddings;
  c.plan.code_motion = reader.boolean(3);

  reader.expect_next("simt", 8);
  c.simt.device.num_blocks = static_cast<std::uint32_t>(reader.u64(1));
  c.simt.device.warps_per_block = static_cast<std::uint32_t>(reader.u64(2));
  c.simt.unroll = static_cast<std::uint32_t>(reader.u64(3));
  c.simt.chunk_size = static_cast<std::uint32_t>(reader.u64(4));
  c.simt.local_steal = reader.boolean(5);
  c.simt.global_steal = reader.boolean(6);
  c.simt.stop_level = static_cast<std::uint32_t>(reader.u64(7));
  c.simt.detect_level = static_cast<std::uint32_t>(reader.u64(8));
  STM_CHECK_MSG(c.simt.device.num_blocks >= 1 &&
                    c.simt.device.warps_per_block >= 1 && c.simt.unroll >= 1 &&
                    c.simt.chunk_size >= 1,
                "repro: simt knobs must be >= 1 in \"" << reader.raw() << "\"");

  reader.expect_next("host", 2);
  c.host.num_threads = static_cast<std::size_t>(reader.u64(1));
  c.host.chunk_size = static_cast<VertexId>(reader.u64(2));
  STM_CHECK_MSG(c.host.num_threads >= 1 && c.host.chunk_size >= 1,
                "repro: host knobs must be >= 1 in \"" << reader.raw() << "\"");

  // Lane sections (each optional, at most once, any order), then 'end'.
  std::set<const Lane*> seen;
  for (reader.require_next("a lane section or 'end'"); !reader.key_is("end");
       reader.require_next("a lane section or 'end'")) {
    const Lane* lane = nullptr;
    for (const Lane& l : lanes())
      if (l.section != nullptr && reader.key_is(l.section)) lane = &l;
    STM_CHECK_MSG(lane != nullptr,
                  "repro: unknown section in \"" << reader.raw() << "\"");
    STM_CHECK_MSG(seen.insert(lane).second,
                  "repro: repeated section in \"" << reader.raw() << "\"");
    lane->read(reader, c);
  }
  STM_CHECK_MSG(!reader.next(),
                "repro: trailing content after 'end': \"" << reader.raw()
                                                          << "\"");
  return c;
}

void save_repro(const TestCase& c, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  STM_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << to_repro(c);
  out.flush();
  STM_CHECK_MSG(out.good(), "failed writing repro to " << path);
}

TestCase load_repro(const std::string& path) {
  std::ifstream in(path);
  STM_CHECK_MSG(in.good(), "cannot open repro file " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_repro(buffer.str());
}

}  // namespace stm::harness
