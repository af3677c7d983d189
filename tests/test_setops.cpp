// Unit and property tests for src/setops.
#include <gtest/gtest.h>

#include <algorithm>

#include "setops/multi_set_op.hpp"
#include "setops/set_ops.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

std::vector<VertexId> random_sorted_set(Rng& rng, std::size_t max_size,
                                        VertexId universe) {
  std::vector<VertexId> v;
  const auto size = rng.next_below(max_size + 1);
  for (std::size_t i = 0; i < size; ++i)
    v.push_back(static_cast<VertexId>(rng.next_below(universe)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<VertexId> std_intersect(SetView a, SetView b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<VertexId> std_difference(SetView a, SetView b) {
  std::vector<VertexId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

TEST(SetOps, ContainsBasic) {
  std::vector<VertexId> s{1, 3, 5, 9};
  EXPECT_TRUE(set_contains(s, 1));
  EXPECT_TRUE(set_contains(s, 9));
  EXPECT_FALSE(set_contains(s, 2));
  EXPECT_FALSE(set_contains({}, 0));
}

TEST(SetOps, IntersectBasic) {
  std::vector<VertexId> a{1, 2, 3, 7}, b{2, 3, 4, 7, 9};
  EXPECT_EQ(set_intersect(a, b), (std::vector<VertexId>{2, 3, 7}));
  EXPECT_EQ(set_intersect(a, {}), std::vector<VertexId>{});
  EXPECT_EQ(set_intersect({}, b), std::vector<VertexId>{});
}

TEST(SetOps, DifferenceBasic) {
  std::vector<VertexId> a{1, 2, 3, 7}, b{2, 7};
  EXPECT_EQ(set_difference(a, b), (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(set_difference(a, {}), a);
  EXPECT_EQ(set_difference({}, b), std::vector<VertexId>{});
}

TEST(SetOps, CountsMatchMaterialized) {
  Rng rng(100);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_sorted_set(rng, 64, 128);
    auto b = random_sorted_set(rng, 64, 128);
    EXPECT_EQ(set_intersect_count(a, b), set_intersect(a, b).size());
    EXPECT_EQ(set_difference_count(a, b), set_difference(a, b).size());
  }
}

class IntersectAlgoTest : public ::testing::TestWithParam<IntersectAlgo> {};

TEST_P(IntersectAlgoTest, MatchesStdOnRandomInputs) {
  Rng rng(42 + static_cast<int>(GetParam()));
  for (int trial = 0; trial < 300; ++trial) {
    auto a = random_sorted_set(rng, 100, 300);
    auto b = random_sorted_set(rng, 100, 300);
    EXPECT_EQ(set_intersect(a, b, GetParam()), std_intersect(a, b));
  }
}

TEST_P(IntersectAlgoTest, SkewedSizes) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    auto a = random_sorted_set(rng, 4, 1000);
    auto b = random_sorted_set(rng, 500, 1000);
    EXPECT_EQ(set_intersect(a, b, GetParam()), std_intersect(a, b));
    EXPECT_EQ(set_intersect(b, a, GetParam()), std_intersect(b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, IntersectAlgoTest,
                         ::testing::Values(IntersectAlgo::kMerge,
                                           IntersectAlgo::kBinary,
                                           IntersectAlgo::kGalloping),
                         [](const auto& info) {
                           switch (info.param) {
                             case IntersectAlgo::kMerge: return "Merge";
                             case IntersectAlgo::kBinary: return "Binary";
                             default: return "Galloping";
                           }
                         });

TEST(SetOps, DifferenceMatchesStdOnRandomInputs) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    auto a = random_sorted_set(rng, 100, 300);
    auto b = random_sorted_set(rng, 100, 300);
    EXPECT_EQ(set_difference(a, b), std_difference(a, b));
  }
}

TEST(SetOps, SetOpIntoDispatch) {
  std::vector<VertexId> a{1, 2, 3}, b{2}, out;
  set_op_into(simd::kernels(), SetOpKind::kIntersect, a, b, out);
  EXPECT_EQ(out, std::vector<VertexId>{2});
  set_op_into(simd::kernels(), SetOpKind::kDifference, a, b, out);
  EXPECT_EQ(out, (std::vector<VertexId>{1, 3}));
}

/// Calls of each kernel of the counting table below, and the operand sizes
/// of the last one.
struct KernelCalls {
  int intersect = 0, gallop_intersect = 0, difference = 0,
      gallop_difference = 0;
  std::size_t an = 0, bn = 0;
};
KernelCalls g_calls;

const simd::Kernels& scalar_kernels() {
  return simd::kernels_for(simd::IsaLevel::kScalar);
}

/// A table whose set-op entries count their calls and delegate to the
/// scalar table, so a test sees which kernel set_op_into picked.
simd::Kernels counting_kernels() {
  simd::Kernels k = scalar_kernels();
  k.intersect = [](const VertexId* a, std::size_t an, const VertexId* b,
                   std::size_t bn, VertexId* out) {
    ++g_calls.intersect;
    g_calls.an = an;
    g_calls.bn = bn;
    return scalar_kernels().intersect(a, an, b, bn, out);
  };
  k.gallop_intersect = [](const VertexId* a, std::size_t an,
                          const VertexId* b, std::size_t bn, VertexId* out) {
    ++g_calls.gallop_intersect;
    g_calls.an = an;
    g_calls.bn = bn;
    return scalar_kernels().gallop_intersect(a, an, b, bn, out);
  };
  k.difference = [](const VertexId* a, std::size_t an, const VertexId* b,
                    std::size_t bn, VertexId* out) {
    ++g_calls.difference;
    g_calls.an = an;
    g_calls.bn = bn;
    return scalar_kernels().difference(a, an, b, bn, out);
  };
  k.gallop_difference = [](const VertexId* a, std::size_t an,
                           const VertexId* b, std::size_t bn,
                           VertexId* out) {
    ++g_calls.gallop_difference;
    g_calls.an = an;
    g_calls.bn = bn;
    return scalar_kernels().gallop_difference(a, an, b, bn, out);
  };
  return k;
}

/// The even numbers 0, 2, ..., 2 * (n - 1).
std::vector<VertexId> evens(std::size_t n) {
  std::vector<VertexId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<VertexId>(2 * i);
  return v;
}

TEST(SetOps, SetOpIntoGallopsFromThirtyTwoFoldSkew) {
  static_assert(simd::kGallopSkewRatio == 32);
  const simd::Kernels k = counting_kernels();
  const std::vector<VertexId> small{0, 3, 8, 10};  // 3 is odd: a miss
  std::vector<VertexId> out;
  // 4 x 32 = 128 gallops, the shorter list probing the longer in either
  // operand order; 127 block-merges with the operands as given.
  const std::vector<VertexId> at_ratio = evens(128), below = evens(127);
  const struct {
    SetView lhs, rhs;
    int gallops, merges;
    std::size_t an, bn;
  } cases[] = {
      {small, at_ratio, 1, 0, 4, 128},
      {at_ratio, small, 1, 0, 4, 128},
      {small, below, 0, 1, 4, 127},
      {below, small, 0, 1, 127, 4},
  };
  for (const auto& c : cases) {
    g_calls = {};
    set_op_into(k, SetOpKind::kIntersect, c.lhs, c.rhs, out);
    EXPECT_EQ(out, std_intersect(c.lhs, c.rhs));
    EXPECT_EQ(g_calls.gallop_intersect, c.gallops);
    EXPECT_EQ(g_calls.intersect, c.merges);
    EXPECT_EQ(g_calls.an, c.an);
    EXPECT_EQ(g_calls.bn, c.bn);
    EXPECT_EQ(g_calls.difference + g_calls.gallop_difference, 0);
  }
  // a \ b gallops only when |a| x 32 <= |b|; the long list minus the short
  // one always merges.
  const struct {
    SetView lhs, rhs;
    int gallops, merges;
  } diffs[] = {
      {small, at_ratio, 1, 0},
      {small, below, 0, 1},
      {at_ratio, small, 0, 1},
  };
  for (const auto& d : diffs) {
    g_calls = {};
    set_op_into(k, SetOpKind::kDifference, d.lhs, d.rhs, out);
    EXPECT_EQ(out, std_difference(d.lhs, d.rhs));
    EXPECT_EQ(g_calls.gallop_difference, d.gallops);
    EXPECT_EQ(g_calls.difference, d.merges);
    EXPECT_EQ(g_calls.an, d.lhs.size());
    EXPECT_EQ(g_calls.bn, d.rhs.size());
    EXPECT_EQ(g_calls.intersect + g_calls.gallop_intersect, 0);
  }
}

TEST(SetOps, SetOpIntoFiltersAfterTheKernel) {
  const simd::Kernels k = counting_kernels();
  // Label v % 3; keep labels 0 and 2. The rule reads the unfiltered sizes.
  std::vector<Label> labels(256);
  for (std::size_t v = 0; v < labels.size(); ++v)
    labels[v] = static_cast<Label>(v % 3);
  const LabelFilter filter{labels.data(), (1ULL << 0) | (1ULL << 2)};
  const std::vector<VertexId> small{0, 2, 4, 6}, large = evens(128);
  std::vector<VertexId> out;
  g_calls = {};
  set_op_into(k, SetOpKind::kIntersect, small, large, out, filter);
  EXPECT_EQ(out, (std::vector<VertexId>{0, 2, 6}));
  EXPECT_EQ(g_calls.gallop_intersect, 1);
  g_calls = {};
  set_op_into(k, SetOpKind::kDifference, large, small, out, filter);
  std::vector<VertexId> want;
  for (VertexId v : std_difference(large, small))
    if (filter.keep(v)) want.push_back(v);
  EXPECT_EQ(out, want);
  EXPECT_EQ(g_calls.difference, 1);
}

TEST(SetOps, BsearchSteps) {
  EXPECT_EQ(bsearch_steps(0), 1u);
  EXPECT_EQ(bsearch_steps(1), 1u);
  EXPECT_EQ(bsearch_steps(2), 2u);
  EXPECT_EQ(bsearch_steps(32), 6u);
  EXPECT_EQ(bsearch_steps(33), 7u);
}

TEST(MultiSetOp, SingleTaskMatchesScalar) {
  std::vector<VertexId> a{1, 4, 6, 8}, b{4, 8, 9}, out;
  SetOpTask task{a, b, SetOpKind::kIntersect, {}, &out};
  WarpOpCost cost;
  combined_set_op(simd::kernels(), {&task, 1}, &cost);
  EXPECT_EQ(out, set_intersect(a, b));
  EXPECT_EQ(cost.waves, 1u);
  EXPECT_EQ(cost.busy_lane_slots, 4u);
}

TEST(MultiSetOp, ManyTasksMatchScalarLoop) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t m = 1 + rng.next_below(8);
    std::vector<std::vector<VertexId>> sources(m), targets(m), outs(m);
    std::vector<SetOpTask> tasks(m);
    for (std::size_t i = 0; i < m; ++i) {
      sources[i] = random_sorted_set(rng, 40, 100);
      targets[i] = random_sorted_set(rng, 40, 100);
      tasks[i] = {sources[i], targets[i],
                  (i % 2 == 0) ? SetOpKind::kIntersect : SetOpKind::kDifference,
                  {},
                  &outs[i]};
    }
    combined_set_op(simd::kernels(), tasks, nullptr);
    for (std::size_t i = 0; i < m; ++i) {
      if (i % 2 == 0)
        EXPECT_EQ(outs[i], std_intersect(sources[i], targets[i]));
      else
        EXPECT_EQ(outs[i], std_difference(sources[i], targets[i]));
    }
  }
}

TEST(MultiSetOp, UtilizationImprovesWithFusion) {
  // Eight sets of 8 elements each: one-at-a-time needs 8 waves at 25%
  // utilization; fused they need 2 full waves (the paper's Fig. 8 argument).
  std::vector<std::vector<VertexId>> sources(8), outs(8);
  std::vector<VertexId> target{1, 5, 7};
  std::vector<SetOpTask> tasks;
  for (std::size_t i = 0; i < 8; ++i) {
    for (VertexId v = 0; v < 8; ++v) sources[i].push_back(v * 2);
    tasks.push_back({sources[i], target, SetOpKind::kIntersect, {}, &outs[i]});
  }
  WarpOpCost fused;
  combined_set_op(simd::kernels(), tasks, &fused);
  EXPECT_EQ(fused.waves, 2u);
  EXPECT_DOUBLE_EQ(fused.utilization(), 1.0);

  WarpOpCost sequential;
  for (auto& task : tasks)
    combined_set_op(simd::kernels(), {&task, 1}, &sequential);
  EXPECT_EQ(sequential.waves, 8u);
  EXPECT_DOUBLE_EQ(sequential.utilization(), 0.25);
}

TEST(MultiSetOp, LabelFilterKeepsOnlyMaskedLabels) {
  std::vector<Label> labels{0, 1, 2, 0, 1, 2};
  std::vector<VertexId> source{0, 1, 2, 3, 4, 5}, target{0, 1, 2, 3, 4, 5};
  std::vector<VertexId> out;
  LabelFilter filter{labels.data(), (1ULL << 1) | (1ULL << 2)};
  SetOpTask task{source, target, SetOpKind::kIntersect, filter, &out};
  combined_set_op(simd::kernels(), {&task, 1}, nullptr);
  EXPECT_EQ(out, (std::vector<VertexId>{1, 2, 4, 5}));
}

TEST(MultiSetOp, EmptySourcesProduceNoWaves) {
  std::vector<VertexId> empty, target{1}, out{99};
  SetOpTask task{empty, target, SetOpKind::kIntersect, {}, &out};
  WarpOpCost cost;
  combined_set_op(simd::kernels(), {&task, 1}, &cost);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cost.waves, 0u);
  EXPECT_DOUBLE_EQ(cost.utilization(), 1.0);
}

TEST(MultiSetOp, FilteredCopy) {
  std::vector<Label> labels{0, 1, 0, 1};
  std::vector<VertexId> source{0, 1, 2, 3}, out;
  WarpOpCost cost;
  filtered_copy(source, {labels.data(), 1ULL << 1}, out, &cost);
  EXPECT_EQ(out, (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(cost.waves, 1u);
  EXPECT_EQ(cost.elements_written, 2u);
}

TEST(MultiSetOp, CostAccumulates) {
  std::vector<VertexId> a{1, 2, 3}, b{2}, out;
  SetOpTask task{a, b, SetOpKind::kIntersect, {}, &out};
  WarpOpCost cost;
  combined_set_op(simd::kernels(), {&task, 1}, &cost);
  const auto waves_once = cost.waves;
  combined_set_op(simd::kernels(), {&task, 1}, &cost);
  EXPECT_EQ(cost.waves, 2 * waves_once);
}

TEST(MultiSetOp, OrderPreservedPerOutput) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    auto source = random_sorted_set(rng, 200, 400);
    auto target = random_sorted_set(rng, 200, 400);
    std::vector<VertexId> out;
    SetOpTask task{source, target, SetOpKind::kDifference, {}, &out};
    combined_set_op(simd::kernels(), {&task, 1}, nullptr);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  }
}

}  // namespace
}  // namespace stm
