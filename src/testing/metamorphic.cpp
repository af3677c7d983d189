#include "testing/metamorphic.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/recursive.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "graph/reorder.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/symmetry.hpp"
#include "util/check.hpp"

namespace stm::harness {

const char* to_string(Relation relation) {
  switch (relation) {
    case Relation::kRelabelInvariance:
      return "relabel-invariance";
    case Relation::kDisjointUnionAdditivity:
      return "disjoint-union-additivity";
    case Relation::kLabelEquivariance:
      return "label-equivariance";
    case Relation::kAutomorphismDivisibility:
      return "automorphism-divisibility";
    case Relation::kDeletionConsistency:
      return "deletion-consistency";
  }
  return "unknown";
}

namespace {

bool sabotage_metamorphic() {
  const char* mode = std::getenv("STMATCH_FUZZ_SABOTAGE");
  return mode != nullptr &&
         std::string_view(mode) == "metamorphic_off_by_one";
}

/// The layer's single trusted counter (see header).
std::uint64_t count(const Graph& g, const Pattern& p, const PlanOptions& opts) {
  const MatchingPlan plan(reorder_for_matching(p), opts);
  std::uint64_t c = recursive_count_range(g, plan, 0, g.num_vertices());
  if (c > 0 && sabotage_metamorphic()) ++c;
  return c;
}

void report_violation(MetamorphicReport& report, Relation relation,
                      const std::string& detail) {
  std::ostringstream os;
  os << to_string(relation) << ": " << detail;
  report.violations.push_back(os.str());
}

void check_relabel_invariance(const TestCase& c, Rng& rng,
                              MetamorphicReport& report,
                              std::uint64_t base_count) {
  constexpr ReorderKind kKinds[] = {ReorderKind::kDegreeDescending,
                                    ReorderKind::kDegreeAscending,
                                    ReorderKind::kBfs};
  for (const ReorderKind kind : kKinds) {
    ++report.checked;
    const std::uint64_t got = count(reorder_graph(c.graph, kind), c.pattern,
                                    c.plan);
    if (got != base_count) {
      std::ostringstream os;
      os << "reorder kind " << static_cast<int>(kind) << " changed the count "
         << base_count << " -> " << got;
      report_violation(report, Relation::kRelabelInvariance, os.str());
    }
  }
  // One uniformly random relabeling on top of the structured orders.
  ++report.checked;
  std::vector<VertexId> perm(c.graph.num_vertices());
  std::iota(perm.begin(), perm.end(), VertexId{0});
  rng.shuffle(perm);
  const std::uint64_t got = count(apply_reorder(c.graph, perm), c.pattern,
                                  c.plan);
  if (got != base_count) {
    std::ostringstream os;
    os << "random relabeling changed the count " << base_count << " -> "
       << got;
    report_violation(report, Relation::kRelabelInvariance, os.str());
  }
}

void check_disjoint_union(const TestCase& c, Rng& rng,
                          MetamorphicReport& report,
                          std::uint64_t base_count) {
  ++report.checked;
  Graph companion = make_erdos_renyi(
      8 + static_cast<VertexId>(rng.next_below(8)),
      0.2 + 0.2 * rng.next_double(), rng());
  if (c.graph.is_labeled()) {
    companion = with_random_labels(
        companion, std::max<std::size_t>(c.graph.num_labels(), 2), rng());
  }
  const std::uint64_t companion_count = count(companion, c.pattern, c.plan);
  const std::uint64_t union_count =
      count(disjoint_union(c.graph, companion), c.pattern, c.plan);
  if (union_count != base_count + companion_count) {
    std::ostringstream os;
    os << "count(G ⊎ H) = " << union_count << " but count(G) + count(H) = "
       << base_count << " + " << companion_count;
    report_violation(report, Relation::kDisjointUnionAdditivity, os.str());
  }
}

void check_label_equivariance(const TestCase& c, Rng& rng,
                              MetamorphicReport& report,
                              std::uint64_t base_count) {
  if (!c.graph.is_labeled() || !c.pattern.is_labeled()) return;
  ++report.checked;
  // A random bijection over the full label byte range covers labels present
  // in either the graph or the pattern.
  std::vector<Label> mapping(kMaxLabels);
  std::iota(mapping.begin(), mapping.end(), Label{0});
  rng.shuffle(mapping);
  const Graph mapped_graph = map_label_values(c.graph, mapping);
  std::vector<Label> pattern_labels = c.pattern.label_vector();
  for (Label& l : pattern_labels) l = mapping[l];
  const Pattern mapped_pattern = c.pattern.with_labels(pattern_labels);
  const std::uint64_t got = count(mapped_graph, mapped_pattern, c.plan);
  if (got != base_count) {
    std::ostringstream os;
    os << "label bijection changed the count " << base_count << " -> " << got;
    report_violation(report, Relation::kLabelEquivariance, os.str());
  }
}

void check_automorphism_divisibility(const TestCase& c,
                                     MetamorphicReport& report) {
  ++report.checked;
  PlanOptions embeddings = c.plan;
  embeddings.count_mode = CountMode::kEmbeddings;
  PlanOptions unique = c.plan;
  unique.count_mode = CountMode::kUniqueSubgraphs;
  const std::uint64_t emb = count(c.graph, c.pattern, embeddings);
  const std::uint64_t uniq = count(c.graph, c.pattern, unique);
  const std::uint64_t aut = automorphisms(c.pattern).size();
  if (emb != uniq * aut) {
    std::ostringstream os;
    os << "embeddings = " << emb << " but unique x |Aut| = " << uniq << " x "
       << aut;
    report_violation(report, Relation::kAutomorphismDivisibility, os.str());
  }
}

void check_deletion_consistency(const TestCase& c, Rng& rng,
                                MetamorphicReport& report,
                                std::uint64_t base_count) {
  if (c.plan.induced != Induced::kEdge || c.pattern.size() < 2) return;
  if (c.graph.num_edges() == 0) return;
  ++report.checked;
  // Pick a uniformly random undirected edge via the adjacency arrays.
  const auto edges = edge_list(c.graph);
  const auto [u, v] = edges[rng.next_below(edges.size())];

  MutableGraph mutable_graph(c.graph);
  auto from = mutable_graph.snapshot();
  UpdateBatch batch;
  batch.deletions = {{u, v}};
  ApplyResult applied = mutable_graph.apply(batch);

  const IncrementalMatcher matcher(c.pattern, c.plan);
  const std::int64_t delta = matcher.count_delta(from, applied.applied).delta;
  const std::uint64_t after =
      count(applied.snapshot->compacted(), c.pattern, c.plan);
  if (static_cast<std::int64_t>(base_count) + delta !=
      static_cast<std::int64_t>(after)) {
    std::ostringstream os;
    os << "deleting edge " << u << "-" << v << ": count " << base_count
       << " + delta " << delta << " != recount " << after;
    report_violation(report, Relation::kDeletionConsistency, os.str());
  }
}

}  // namespace

MetamorphicReport check_metamorphic(const TestCase& c, std::uint64_t seed) {
  STM_CHECK(c.pattern.size() >= 1);
  MetamorphicReport report;
  Rng rng(seed);
  const std::uint64_t base_count = count(c.graph, c.pattern, c.plan);
  check_relabel_invariance(c, rng, report, base_count);
  check_disjoint_union(c, rng, report, base_count);
  check_label_equivariance(c, rng, report, base_count);
  check_automorphism_divisibility(c, report);
  check_deletion_consistency(c, rng, report, base_count);
  return report;
}

bool metamorphic_violated(const TestCase& c, std::uint64_t seed) {
  return !check_metamorphic(c, seed).ok();
}

std::string MetamorphicReport::describe() const {
  std::ostringstream os;
  os << (ok() ? "OK" : "VIOLATED") << " (" << checked << " relation instances"
     << ")\n";
  for (const std::string& v : violations) os << "  " << v << "\n";
  return os.str();
}

}  // namespace stm::harness
