#include "dynamic/incremental.hpp"

#include <algorithm>

#include "core/recursive.hpp"
#include "pattern/symmetry.hpp"
#include "util/check.hpp"

namespace stm {

namespace {

/// Relabels `p` so that anchor edge (a, b) sits at levels 0/1 and the rest
/// follows a greedy connected order (max connectivity to the prefix, ties by
/// degree then smallest id — the same heuristic as matching_order, with the
/// seed forced).
Pattern anchored_pattern(const Pattern& p, std::size_t a, std::size_t b,
                         std::vector<std::size_t>* perm_out) {
  const std::size_t k = p.size();
  std::vector<std::size_t> perm{a, b};
  std::vector<bool> used(k, false);
  used[a] = used[b] = true;
  while (perm.size() < k) {
    std::size_t best = k;
    std::size_t best_conn = 0;
    for (std::size_t v = 0; v < k; ++v) {
      if (used[v]) continue;
      std::size_t conn = 0;
      for (std::size_t u : perm) conn += p.has_edge(u, v) ? 1 : 0;
      if (conn == 0) continue;  // keep the order connected
      const bool better =
          best == k || conn > best_conn ||
          (conn == best_conn && (p.degree(v) > p.degree(best) ||
                                 (p.degree(v) == p.degree(best) && v < best)));
      if (better) {
        best = v;
        best_conn = conn;
      }
    }
    STM_CHECK_MSG(best < k, "pattern must be connected");
    perm.push_back(best);
    used[best] = true;
  }
  if (perm_out != nullptr) *perm_out = perm;
  return p.relabeled(perm);
}

bool label_ok(GraphView g, std::uint64_t mask, VertexId v) {
  return !g.is_labeled() || ((mask >> g.label(v)) & 1ULL);
}

}  // namespace

AnchoredEnumerator::AnchoredEnumerator(const Pattern& pattern,
                                       const PlanOptions& base)
    : pattern_(pattern) {
  STM_CHECK_MSG(base.induced == Induced::kEdge,
                "anchored enumeration supports edge-induced semantics only: "
                "a vertex-induced match can change without containing the "
                "anchor edge");
  STM_CHECK_MSG(pattern_.size() >= 2, "pattern must have at least two vertices");

  // One anchored plan per (unordered) pattern edge, always compiled in
  // kEmbeddings mode: symmetry-breaking constraints assume the engine's own
  // vertex order and would miscount under a forced anchor. Subgraph counts
  // are recovered by dividing aggregated embeddings by |Aut(pattern)|.
  PlanOptions anchor_opts = base;
  anchor_opts.count_mode = CountMode::kEmbeddings;
  for (std::size_t a = 0; a < pattern_.size(); ++a)
    for (std::size_t b = a + 1; b < pattern_.size(); ++b)
      if (pattern_.has_edge(a, b)) {
        std::vector<std::size_t> perm;
        anchors_.emplace_back(anchored_pattern(pattern_, a, b, &perm),
                              anchor_opts);
        anchor_perms_.push_back(std::move(perm));
      }

  if (base.count_mode == CountMode::kUniqueSubgraphs)
    automorphisms_ = automorphism_count(pattern_);
}

std::uint64_t AnchoredEnumerator::count_containing(GraphView g, VertexId u,
                                                   VertexId v,
                                                   std::uint64_t* runs) const {
  std::uint64_t total = 0;
  for (const MatchingPlan& plan : anchors_) {
    const std::pair<VertexId, VertexId> seeds[2] = {{u, v}, {v, u}};
    for (const auto& [s0, s1] : seeds) {
      if (!label_ok(g, plan.exact_mask(0), s0) ||
          !label_ok(g, plan.exact_mask(1), s1))
        continue;
      ++*runs;
      total += recursive_count_seed(g, plan, s0, s1);
    }
  }
  return total;
}

std::uint64_t AnchoredEnumerator::enumerate_containing(
    GraphView g, VertexId u, VertexId v, const AnchoredVisitor& visit,
    std::uint64_t* runs) const {
  std::uint64_t total = 0;
  const std::size_t k = pattern_.size();
  std::vector<VertexId> orig(k);
  for (std::size_t a = 0; a < anchors_.size(); ++a) {
    const MatchingPlan& plan = anchors_[a];
    const auto& perm = anchor_perms_[a];
    const EmbeddingVisitor emit = [&](const std::vector<VertexId>& mapping) {
      for (std::size_t i = 0; i < k; ++i) orig[perm[i]] = mapping[i];
      visit(orig);
      return true;
    };
    const std::pair<VertexId, VertexId> seeds[2] = {{u, v}, {v, u}};
    for (const auto& [s0, s1] : seeds) {
      if (!label_ok(g, plan.exact_mask(0), s0) ||
          !label_ok(g, plan.exact_mask(1), s1))
        continue;
      ++*runs;
      total += recursive_enumerate_seed(g, plan, s0, s1, emit);
    }
  }
  return total;
}

IncrementalMatcher::IncrementalMatcher(const Pattern& pattern,
                                       const PlanOptions& plan)
    : count_mode_(plan.count_mode), enumerator_(pattern, plan) {}

DeltaMatchResult IncrementalMatcher::count_delta(
    const std::shared_ptr<const GraphSnapshot>& from,
    const DeltaEdges& applied) const {
  STM_CHECK(from != nullptr);
  DeltaMatchResult result;
  result.delta_edges = applied.size();
  if (applied.empty()) return result;

  // Let G_old = `from`, G_new = G_old + applied, and
  // G_common = G_old \ deleted = G_new \ inserted. Adding the inserted
  // edges d_1..d_m to G_common one at a time,
  //   count(G_new) - count(G_common) = sum_i |matches containing d_i in
  //                                           G_common + {d_1..d_i}|
  // because every match of G_new that is not a match of G_common contains
  // at least one inserted edge and is counted exactly once: at the
  // largest-index inserted edge it contains (earlier prefixes miss that
  // edge, later prefixes only count matches containing *their* newest
  // edge). The same identity over the deleted edges r_1..r_j gives
  // count(G_old) - count(G_common), and the difference of the two sums is
  // the exact delta — inclusion–exclusion realized by prefix construction,
  // with no per-embedding filtering.
  std::int64_t delta = 0;
  for (const int sign : {+1, -1}) {
    GraphEdit edit(from);
    for (const auto& [u, v] : applied.deleted) edit.remove_edge(u, v);
    for (const auto& [u, v] : sign > 0 ? applied.inserted : applied.deleted) {
      edit.add_edge(u, v);
      delta += sign * static_cast<std::int64_t>(enumerator_.count_containing(
                          edit.view(), u, v, &result.anchored_runs));
    }
  }
  if (count_mode_ == CountMode::kUniqueSubgraphs) {
    const auto aut = static_cast<std::int64_t>(automorphisms());
    STM_CHECK_MSG(delta % aut == 0,
                  "embedding delta " << delta << " not divisible by |Aut| "
                                     << aut);
    delta /= aut;
  }
  result.delta = delta;
  return result;
}

}  // namespace stm
