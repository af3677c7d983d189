// Unit tests for src/util: checks, RNG, prefix sums, stats, table, options,
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/options.hpp"
#include "util/prefix_sum.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace stm {
namespace {

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(STM_CHECK(1 + 1 == 2)); }

TEST(Check, ThrowsOnFalse) { EXPECT_THROW(STM_CHECK(false), check_error); }

TEST(Check, MessageIncludesExpression) {
  try {
    STM_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected throw";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowZeroBound) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(PrefixSum, Exclusive) {
  std::vector<int> v{3, 1, 4, 1, 5};
  auto s = exclusive_prefix_sum(v);
  EXPECT_EQ(s, (std::vector<int>{0, 3, 4, 8, 9, 14}));
}

TEST(PrefixSum, ExclusiveEmpty) {
  auto s = exclusive_prefix_sum(std::vector<int>{});
  EXPECT_EQ(s, std::vector<int>{0});
}

TEST(PrefixSum, Inclusive) {
  std::vector<int> v{2, 2, 2};
  EXPECT_EQ(inclusive_prefix_sum(v), (std::vector<int>{2, 4, 6}));
}

TEST(PrefixSum, SegmentOf) {
  std::vector<int> sizes{3, 0, 2, 4};
  auto scan = exclusive_prefix_sum(sizes);
  // Flat positions: 0,1,2 -> segment 0; 3,4 -> segment 2; 5..8 -> segment 3.
  EXPECT_EQ(segment_of(scan, 0), 0u);
  EXPECT_EQ(segment_of(scan, 2), 0u);
  EXPECT_EQ(segment_of(scan, 3), 2u);
  EXPECT_EQ(segment_of(scan, 4), 2u);
  EXPECT_EQ(segment_of(scan, 5), 3u);
  EXPECT_EQ(segment_of(scan, 8), 3u);
  EXPECT_THROW(segment_of(scan, 9), check_error);
}

TEST(Stats, Summary) {
  auto s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, SummaryOddMedian) {
  EXPECT_DOUBLE_EQ(summarize({5.0, 1.0, 3.0}).median, 3.0);
}

TEST(Stats, SummaryEmpty) {
  auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_THROW(geometric_mean({1.0, 0.0}), check_error);
}

TEST(Stats, Histogram) {
  auto h = histogram({0.5, 1.5, 1.6, 9.9, -5.0, 20.0}, 0.0, 10.0, 10);
  EXPECT_EQ(h[0], 2u);  // 0.5 and clamped -5.0
  EXPECT_EQ(h[1], 2u);
  EXPECT_EQ(h[9], 2u);  // 9.9 and clamped 20.0
}

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_count(1234567), "1,234,567");
  EXPECT_EQ(Table::fmt_count(999), "999");
  EXPECT_EQ(Table::fmt_count(0), "0");
}

TEST(Options, ParsesForms) {
  const char* argv[] = {"prog", "--a=1", "--b=2", "--flag", "pos"};
  Options o(5, argv);
  EXPECT_EQ(o.get_int("a", 0), 1);
  EXPECT_EQ(o.get_int("b", 0), 2);
  EXPECT_TRUE(o.get_bool("flag", false));
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos");
}

TEST(Options, Fallbacks) {
  const char* argv[] = {"prog"};
  Options o(1, argv);
  EXPECT_EQ(o.get("missing", "dflt"), "dflt");
  EXPECT_EQ(o.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(o.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(o.get_bool("missing", false));
}

TEST(Options, MalformedNumbersThrow) {
  const char* argv[] = {"prog", "--n=abc"};
  Options o(2, argv);
  EXPECT_THROW(o.get_int("n", 0), check_error);
  EXPECT_THROW(o.get_double("n", 0), check_error);
}

TEST(Options, AllowOnlyCatchesTypos) {
  const char* argv[] = {"prog", "--scael=2"};
  Options o(2, argv);
  EXPECT_THROW(o.allow_only({"scale"}), check_error);
  EXPECT_NO_THROW(o.allow_only({"scael"}));
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPool, ParallelForZero) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.parallel_for(0, [](std::size_t) { FAIL(); }));
}

}  // namespace
}  // namespace stm
