// Standing-query index inspector: trie shape and sharing for a pattern set.
//
// Registers a set of patterns in a PatternIndex and reports what the
// shared-prefix plan trie makes of them — canonical groups, node/terminal
// counts, and the shared-prefix ratio (the fraction of per-plan enumeration
// levels served by a prefix some other plan already pays for; DESIGN.md
// §16). Optionally replays a synthetic graph as one batch through the
// MultiQueryEvaluator and prints the walk accounting next to what the
// per-pattern loop would have cost.
//
//   mqo_info                                   (built-in demo pattern set)
//   mqo_info --patterns="0-1,1-2,2-0;0-1,1-2,2-3" --dup=4
//   mqo_info --dump                            (one line per trie node)
//   mqo_info --selftest    (ctest smoke: sharing + indexed == loop, exit 0/1)

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "mqo/evaluator.hpp"
#include "mqo/pattern_index.hpp"
#include "testing/workload.hpp"
#include "util/check.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace stm;

void print_usage() {
  std::cout <<
      "usage: mqo_info [options]\n"
      "  --patterns=LIST    semicolon-separated pattern edge lists\n"
      "                     (default: triangle;4-clique;prism;K33;path)\n"
      "  --dup=N            register each pattern N times (default 1)\n"
      "  --dump             print the trie, one line per node\n"
      "  --vertices=N       evaluation-demo graph size (default 200)\n"
      "  --seed=S           generator seed (default 42)\n"
      "  --no-eval          skip the evaluation demo\n"
      "  --selftest         verify prefix sharing and indexed-vs-loop\n"
      "                     agreement on a small graph, exit 0/1\n";
}

std::vector<Pattern> parse_patterns(const std::string& list) {
  std::vector<Pattern> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t end = list.find(';', start);
    const std::string one =
        list.substr(start, end == std::string::npos ? end : end - start);
    if (!one.empty()) out.push_back(Pattern::parse(one));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  STM_CHECK_MSG(!out.empty(), "--patterns parsed to an empty set");
  return out;
}

std::vector<Pattern> demo_patterns() {
  return {
      Pattern::parse("0-1,1-2,2-0"),                              // triangle
      Pattern::parse("0-1,0-2,0-3,1-2,1-3,2-3"),                  // 4-clique
      Pattern::parse("0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5"),      // prism
      Pattern::parse("0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5"),      // K_{3,3}
      Pattern::parse("0-1,1-2"),                                  // path
  };
}

void report(const std::vector<Pattern>& patterns, const Options& opts) {
  const auto dup =
      static_cast<std::uint64_t>(std::max<std::int64_t>(1, opts.get_int("dup", 1)));
  mqo::PatternIndex index;
  std::uint64_t next_id = 1;
  for (const Pattern& p : patterns)
    for (std::uint64_t d = 0; d < dup; ++d)
      index.add(next_id++, p, PlanOptions{}, /*wants_embeddings=*/false);

  Table regs({"pattern", "vertices", "edges", "|Aut|", "registered"});
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    regs.add_row({patterns[i].to_string(),
                  Table::fmt_count(patterns[i].size()),
                  Table::fmt_count(patterns[i].edges().size()),
                  Table::fmt_count(index.automorphisms(i * dup + 1)),
                  Table::fmt_count(dup)});
  }
  regs.print(std::cout);

  const mqo::IndexStats st = index.stats();
  std::cout << "\nregistrations: " << st.registrations
            << "  canonical groups: " << st.groups << "\n"
            << "trie: " << st.trie.nodes << " nodes, " << st.trie.terminals
            << " terminals, max depth " << st.trie.max_depth << "\n"
            << "plan positions (no-sharing node count): "
            << st.trie.plan_positions << "\n"
            << "shared-prefix ratio: "
            << Table::fmt(st.trie.shared_prefix_ratio, 3) << "\n";

  if (opts.has("dump")) std::cout << "\n" << index.trie().describe();

  if (opts.get_bool("no-eval", false)) return;
  const auto n = static_cast<VertexId>(opts.get_int("vertices", 200));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const Graph g = make_barabasi_albert(n, 3, seed);
  const auto [from, to, applied] = harness::replay_as_one_batch(g);
  const mqo::EvalResult res =
      mqo::MultiQueryEvaluator(index).evaluate(*from, *to, applied);

  std::cout << "\nevaluation demo: power-law graph, " << g.num_vertices()
            << " vertices, " << g.num_edges() << " edges as one batch\n";
  Table counts({"pattern", "embeddings"});
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const mqo::QueryDelta qd = index.project(i * dup + 1, res);
    counts.add_row({patterns[i].to_string(),
                    Table::fmt_count(static_cast<std::uint64_t>(
                        qd.delta < 0 ? 0 : qd.delta))});
  }
  counts.print(std::cout);
  // What the per-pattern loop would seed for the same batch: every
  // registration anchors each of its pattern edges per delta edge, in both
  // orientations.
  std::uint64_t loop_seeds = 0;
  for (const Pattern& p : patterns)
    loop_seeds += 2 * dup * p.edges().size() * res.delta_edges;
  std::cout << "delta edges: " << res.delta_edges
            << "  trie walks seeded: " << res.seed_walks
            << "  node visits: " << res.node_visits << "\n"
            << "per-pattern loop would seed " << loop_seeds
            << " anchored runs for the same batch\n";
}

/// Sharing must show up on the demo set and the indexed deltas must equal
/// the per-pattern IncrementalMatcher's, registration by registration.
int selftest() {
  mqo::PatternIndex index;
  const std::vector<Pattern> patterns = demo_patterns();
  std::uint64_t id = 0;
  for (const Pattern& p : patterns)
    index.add(++id, p, PlanOptions{}, /*wants_embeddings=*/false);
  // Isomorphic re-registrations must fold into the existing groups.
  index.add(++id, Pattern::parse("1-2,2-0,0-1"), PlanOptions{}, false);
  const mqo::IndexStats st = index.stats();
  if (st.groups != patterns.size()) {
    std::cerr << "selftest: expected " << patterns.size() << " groups, got "
              << st.groups << "\n";
    return 1;
  }
  if (st.trie.shared_prefix_ratio <= 0.0 ||
      st.trie.nodes >= st.trie.plan_positions) {
    std::cerr << "selftest: no prefix sharing on the demo set (nodes "
              << st.trie.nodes << ", plan positions "
              << st.trie.plan_positions << ")\n";
    return 1;
  }

  const Graph g = make_barabasi_albert(120, 3, 7);
  const auto [from, to, applied] = harness::replay_as_one_batch(g);
  const mqo::EvalResult res =
      mqo::MultiQueryEvaluator(index).evaluate(*from, *to, applied);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const mqo::QueryDelta qd = index.project(i + 1, res);
    const std::int64_t loop =
        IncrementalMatcher(patterns[i]).count_delta(from, applied).delta;
    if (qd.delta != loop) {
      std::cerr << "selftest: pattern " << patterns[i].to_string()
                << " indexed delta " << qd.delta << " != per-pattern loop "
                << loop << "\n";
      return 1;
    }
  }

  while (id > 0) index.remove(id--);
  if (!index.empty() || !index.trie().empty() || index.stats().trie.nodes != 0) {
    std::cerr << "selftest: trie not empty after removing every registration\n";
    return 1;
  }
  std::cout << "selftest: prefix sharing present, indexed deltas match the "
               "per-pattern loop\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts(argc, argv);
    if (opts.has("help")) {
      print_usage();
      return 0;
    }
    opts.allow_only({"patterns", "dup", "dump", "vertices", "seed", "no-eval",
                     "selftest", "help"});
    if (opts.has("selftest")) return selftest();
    const std::string list = opts.get("patterns", "");
    report(list.empty() ? demo_patterns() : parse_patterns(list), opts);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
