// Unit tests of the benchmark's own pieces: the percentile rule, self time
// under overlapping children, and the seeded arrival schedule.
#include <gtest/gtest.h>

#include <numeric>

#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

TEST(Percentile, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(percentile_sorted(v, 50), 50);
  EXPECT_EQ(percentile_sorted(v, 99), 99);
  EXPECT_EQ(percentile_sorted(v, 100), 100);
  EXPECT_EQ(percentile_sorted(v, 0), 1);
  EXPECT_EQ(percentile_sorted({7.0}, 99), 7);
  EXPECT_EQ(percentile_sorted({}, 50), 0);
  // 1000 samples leave 10 beyond p99: the rule the benchmark relies on.
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);  // one short: p99 needs 1000
  EXPECT_EQ(samples_beyond(100, 99), 1u);
  std::vector<double> odd = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(percentile_sorted(odd, 50), 6);
  EXPECT_EQ(median_of({5, 1, 3}), 3);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parent [0, 100); children [10, 40) and [30, 60) overlap on [30, 40),
  // a third child [90, 120) sticks out of the parent.
  std::vector<Span> spans(4);
  spans[0] = {"p", 0, 100, -1, 0};
  spans[1] = {"a", 10, 40, 0, 0};
  spans[2] = {"b", 30, 60, 0, 0};
  spans[3] = {"c", 90, 120, 0, 0};
  const std::vector<double> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
}

TEST(SelfTime, NestedGrandchildrenOnlyChargeTheirParent) {
  std::vector<Span> spans(3);
  spans[0] = {"root", 0, 100, -1, 0};
  spans[1] = {"child", 10, 60, 0, 0};
  spans[2] = {"grandchild", 20, 50, 1, 0};
  const std::vector<double> self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTime, RecordedSpansNestUnderOpenScope) {
  Trace::clear();
  Trace::enable(true);
  {
    Scope outer("test.outer", 1);
    Trace::record("test.inner", now_ns(), now_ns(), 1);
  }
  Trace::enable(false);
  const auto totals = Trace::totals();
  ASSERT_EQ(totals.at("test.outer").count, 1u);
  ASSERT_EQ(totals.at("test.inner").count, 1u);
  EXPECT_LE(totals.at("test.outer").self_ns, totals.at("test.outer").total_ns);
  Trace::clear();
}

TEST(Schedule, DeterministicPerSeed) {
  const auto a = arrival_schedule(42, 1000, 2'000'000'000);
  const auto b = arrival_schedule(42, 1000, 2'000'000'000);
  const auto c = arrival_schedule(43, 1000, 2'000'000'000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2'000'000'000);
  // Poisson at 1000/s over 2 s: 2000 expected, sd ~45.
  EXPECT_GT(a.size(), 1800u);
  EXPECT_LT(a.size(), 2200u);
}

TEST(Rng, DerivedValuesAreStable) {
  EXPECT_EQ(mix(1, 2, 3), mix(1, 2, 3));
  EXPECT_NE(mix(1, 2, 3), mix(1, 2, 4));
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const long v = r.range(-6, 6);
    EXPECT_GE(v, -6);
    EXPECT_LE(v, 6);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}
