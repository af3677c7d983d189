#include "core/recursive.hpp"

#include <algorithm>

#include "setops/set_ops.hpp"
#include "util/check.hpp"

namespace stm {

namespace {

class RecExec {
 public:
  RecExec(GraphView g, const MatchingPlan& plan, RecursiveCounters* c,
          const CancelToken* cancel = nullptr)
      : g_(g),
        plan_(plan),
        counters_(c),
        poller_(cancel),
        k_(plan.size()),
        simd_(simd::kernels()) {
    STM_CHECK_MSG(!plan_.pattern().is_labeled() || g_.is_labeled(),
                  "labeled pattern requires a labeled data graph");
    values_.resize(plan_.num_nodes());
  }

  std::uint64_t run_range(VertexId v_begin, VertexId v_end,
                          const EmbeddingVisitor* visit = nullptr) {
    visit_ = visit;
    stopped_ = false;
    std::uint64_t total = 0;
    const auto mask = plan_.exact_mask(0);
    for (VertexId v = v_begin; v < std::min(v_end, g_.num_vertices()); ++v) {
      if (stopped_) break;
      if (!label_ok(mask, v)) continue;
      total += run_from_v0(v);
    }
    return total;
  }

  std::uint64_t run_seed(VertexId v0, VertexId v1,
                         const EmbeddingVisitor* visit = nullptr) {
    STM_CHECK(k_ >= 2);
    visit_ = visit;
    stopped_ = false;
    matched_[0] = v0;
    bump_partials(0);
    materialize_entry(1);
    STM_CHECK_MSG(choice_ok(1, v1) &&
                      std::binary_search(cand(1).begin(), cand(1).end(), v1),
                  "seed (v0,v1) is not a valid level-0/1 prefix");
    matched_[1] = v1;
    bump_partials(1);
    if (k_ == 2) {
      if (visit_ != nullptr) (*visit_)({v0, v1});
      return 1;
    }
    materialize_entry(2);
    return recurse(2);
  }

  /// Seek walk: the stack is set on `after`'s path, each level starting at
  /// lower_bound(after[l]) of its candidate list, so the walk visits exactly
  /// the embeddings of outer vertex after[0] that follow `after` in DFS order.
  std::uint64_t run_after(const std::vector<VertexId>& after,
                          const EmbeddingVisitor* visit) {
    STM_CHECK(after.size() == k_);
    visit_ = visit;
    stopped_ = false;
    const VertexId v0 = after[0];
    if (k_ == 1 || v0 >= g_.num_vertices() ||
        !label_ok(plan_.exact_mask(0), v0))
      return 0;
    matched_[0] = v0;
    bump_partials(0);
    materialize_entry(1);
    return seek(1, after);
  }

  std::vector<std::pair<VertexId, VertexId>> seeds() {
    std::vector<std::pair<VertexId, VertexId>> out;
    const auto mask = plan_.exact_mask(0);
    for (VertexId v0 = 0; v0 < g_.num_vertices(); ++v0) {
      if (!label_ok(mask, v0)) continue;
      matched_[0] = v0;
      materialize_entry(1);
      for (VertexId v1 : cand(1))
        if (choice_ok(1, v1)) out.emplace_back(v0, v1);
    }
    return out;
  }

 private:
  bool label_ok(std::uint64_t mask, VertexId v) const {
    return !g_.is_labeled() || ((mask >> g_.label(v)) & 1ULL);
  }

  bool choice_ok(std::size_t l, VertexId v) const {
    for (std::size_t j = 0; j < l; ++j)
      if (matched_[j] == v) return false;
    for (std::uint8_t smaller : plan_.constraints_at(l))
      if (matched_[smaller] >= v) return false;
    return true;
  }

  const std::vector<VertexId>& cand(std::size_t l) const {
    return values_[static_cast<std::size_t>(plan_.candidate_node(l))];
  }

  void bump_partials(std::size_t l) {
    if (counters_ != nullptr) ++counters_->partials[l];
  }

  void add_ops(std::size_t entry, std::uint64_t ops) {
    if (counters_ == nullptr) return;
    counters_->scalar_ops += ops;
    counters_->extension_work[entry] += ops;
  }

  void materialize_entry(std::size_t entry) {
    const auto& nodes = plan_.nodes();
    for (std::int16_t id : plan_.nodes_at_entry(entry)) {
      const SetNode& node = nodes[static_cast<std::size_t>(id)];
      auto nbrs = g_.neighbors(matched_[node.op.vertex]);
      const LabelFilter filter =
          (g_.is_labeled() && node.label_mask != ~0ULL)
              ? LabelFilter{g_.labels_data(), node.label_mask}
              : LabelFilter{};
      auto& out = values_[static_cast<std::size_t>(id)];
      if (node.dep < 0) {
        out.clear();
        for (VertexId v : nbrs)
          if (filter.keep(v)) out.push_back(v);
        add_ops(entry, nbrs.size());
      } else {
        // src != out by plan construction since dep != id.
        const auto& src = values_[static_cast<std::size_t>(node.dep)];
        set_op_into(simd_, node.op.kind, src, nbrs, out, filter);
        add_ops(entry, src.size() + nbrs.size());
      }
      if (counters_ != nullptr) ++counters_->sets_built;
    }
  }

  std::uint64_t run_from_v0(VertexId v0) {
    matched_[0] = v0;
    bump_partials(0);
    if (k_ == 1) return 1;
    materialize_entry(1);
    return recurse(1);
  }

  /// Level l of the seek walk: `after[l]` itself continues on the path (a
  /// leaf is strictly after it), every larger candidate is walked in full.
  std::uint64_t seek(std::size_t l, const std::vector<VertexId>& after) {
    const auto& c = cand(l);
    std::size_t idx = static_cast<std::size_t>(
        std::lower_bound(c.begin(), c.end(), after[l]) - c.begin());
    std::uint64_t total = 0;
    if (idx < c.size() && c[idx] == after[l]) {
      if (l + 1 < k_ && choice_ok(l, after[l])) {
        matched_[l] = after[l];
        bump_partials(l);
        materialize_entry(l + 1);
        total = seek(l + 1, after);
      }
      ++idx;
    }
    return stopped_ ? total : total + recurse(l, idx);
  }

  std::uint64_t recurse(std::size_t l, std::size_t first = 0) {
    const auto& c = cand(l);
    // Symmetry constraints want v_l above every v_smaller: the candidates up
    // to the largest of them would all fail choice_ok, so start past it.
    const auto& smaller = plan_.constraints_at(l);
    if (!smaller.empty()) {
      VertexId bound = 0;
      for (std::uint8_t j : smaller) bound = std::max(bound, matched_[j]);
      first = std::max(first, static_cast<std::size_t>(
                                  std::upper_bound(c.begin(), c.end(), bound) -
                                  c.begin()));
    }
    if (l == k_ - 1) {
      std::uint64_t found = 0;
      for (std::size_t idx = first; idx < c.size(); ++idx) {
        const VertexId v = c[idx];
        if (!choice_ok(l, v)) continue;
        ++found;
        if (visit_ != nullptr) {
          matched_[l] = v;
          std::vector<VertexId> mapping(matched_.begin(),
                                        matched_.begin() +
                                            static_cast<std::ptrdiff_t>(k_));
          if (!(*visit_)(mapping)) {
            stopped_ = true;
            break;
          }
        }
      }
      add_ops(l, c.size());
      if (counters_ != nullptr) counters_->partials[l] += found;
      return found;
    }
    std::uint64_t total = 0;
    // Index-based iteration: deeper recursion only materializes nodes with
    // mat_level > l, so this level's candidate vector is never reallocated
    // underneath us.
    for (std::size_t idx = first; idx < c.size() && !stopped_; ++idx) {
      if (poller_.fired()) {
        stopped_ = true;
        break;
      }
      const VertexId v = c[idx];
      if (!choice_ok(l, v)) continue;
      matched_[l] = v;
      bump_partials(l);
      materialize_entry(l + 1);
      total += recurse(l + 1);
    }
    return total;
  }

  const GraphView g_;
  const MatchingPlan& plan_;
  RecursiveCounters* counters_;
  CancelPoller poller_;
  std::size_t k_;
  const simd::Kernels& simd_;  // bound once per exec
  std::vector<std::vector<VertexId>> values_;
  std::array<VertexId, kMaxPatternSize> matched_{};
  const EmbeddingVisitor* visit_ = nullptr;
  bool stopped_ = false;
};

}  // namespace

std::uint64_t recursive_count_range(GraphView g, const MatchingPlan& plan,
                                    VertexId v_begin, VertexId v_end,
                                    RecursiveCounters* counters,
                                    const CancelToken* cancel) {
  RecExec exec(g, plan, counters, cancel);
  return exec.run_range(v_begin, v_end);
}

std::uint64_t recursive_enumerate_range(GraphView g, const MatchingPlan& plan,
                                        VertexId v_begin, VertexId v_end,
                                        const EmbeddingVisitor& visit,
                                        RecursiveCounters* counters,
                                        const CancelToken* cancel) {
  RecExec exec(g, plan, counters, cancel);
  return exec.run_range(v_begin, v_end, &visit);
}

std::uint64_t recursive_enumerate_after(GraphView g, const MatchingPlan& plan,
                                        const std::vector<VertexId>& after,
                                        const EmbeddingVisitor& visit,
                                        RecursiveCounters* counters,
                                        const CancelToken* cancel) {
  RecExec exec(g, plan, counters, cancel);
  return exec.run_after(after, &visit);
}

std::uint64_t recursive_count_seed(GraphView g, const MatchingPlan& plan,
                                   VertexId v0, VertexId v1,
                                   RecursiveCounters* counters) {
  RecExec exec(g, plan, counters);
  return exec.run_seed(v0, v1);
}

std::uint64_t recursive_enumerate_seed(GraphView g, const MatchingPlan& plan,
                                       VertexId v0, VertexId v1,
                                       const EmbeddingVisitor& visit,
                                       RecursiveCounters* counters) {
  RecExec exec(g, plan, counters);
  return exec.run_seed(v0, v1, &visit);
}

std::vector<std::pair<VertexId, VertexId>> enumerate_seeds(
    GraphView g, const MatchingPlan& plan) {
  RecExec exec(g, plan, nullptr);
  return exec.seeds();
}

}  // namespace stm
