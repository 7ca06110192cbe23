// Tests for the benchmark's percentile and self-time helpers (src/trace.h).
#include <gtest/gtest.h>

#include <thread>

#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentile, EmptySampleIsZero) { EXPECT_EQ(percentile({}, 50), 0.0); }

TEST(Percentile, SingleValueIsEveryPercentile) {
  EXPECT_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_EQ(percentile({7.0}, 50), 7.0);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
}

TEST(Percentile, EndsAreMinAndMax) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 0), 1.0);
  EXPECT_EQ(percentile(v, 100), 5.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  // Sorted 1..4: rank = q/100 * 3.
  const std::vector<double> v{4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 3.7);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
}

TEST(Percentile, MedianOfOddSampleIsMiddleValue) {
  EXPECT_EQ(percentile({9, 1, 5}, 50), 5.0);
}

TEST(Percentile, ClampsOutOfRangeQ) {
  const std::vector<double> v{1, 2, 3};
  EXPECT_EQ(percentile(v, -5), 1.0);
  EXPECT_EQ(percentile(v, 150), 3.0);
}

TEST(WindowedPercentile, EmptySampleIsZero) {
  EXPECT_EQ(windowed_percentile({}, 4, 50), 0.0);
}

TEST(WindowedPercentile, OneWindowIsThePlainPercentile) {
  const std::vector<double> v{4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(windowed_percentile(v, 10, 90), percentile(v, 90));
}

TEST(WindowedPercentile, MedianOfPerWindowPercentiles) {
  // Windows {1,2} {3,4} {5,6}: medians 1.5, 3.5, 5.5 -> 3.5.
  EXPECT_DOUBLE_EQ(windowed_percentile({1, 2, 3, 4, 5, 6}, 2, 50), 3.5);
}

TEST(WindowedPercentile, ABurstInOneWindowDoesNotMoveIt) {
  std::vector<double> v(40, 1.0);
  for (int i = 10; i < 20; ++i) v[static_cast<std::size_t>(i)] = 100.0;
  EXPECT_DOUBLE_EQ(windowed_percentile(v, 10, 90), 1.0);
  EXPECT_GT(percentile(v, 90), 1.0);
}

TEST(WindowedPercentile, ShortTailFoldsIntoLastWindow) {
  // Windows {1,1,1,1} and {1,1,1,1,9}: the lone 9 does not form a window.
  EXPECT_DOUBLE_EQ(windowed_percentile({1, 1, 1, 1, 1, 1, 1, 1, 9}, 4, 50),
                   1.0);
}

TEST(CoveredNs, DisjointChildrenAdd) {
  EXPECT_EQ(covered_ns({{10, 20}, {30, 35}}, 0, 100), 15);
}

TEST(CoveredNs, OverlapsCountOnce) {
  EXPECT_EQ(covered_ns({{10, 30}, {20, 40}, {25, 26}}, 0, 100), 30);
}

TEST(CoveredNs, TouchingIntervalsMerge) {
  EXPECT_EQ(covered_ns({{10, 20}, {20, 30}}, 0, 100), 20);
}

TEST(CoveredNs, ClipsToParent) {
  EXPECT_EQ(covered_ns({{-5, 5}, {95, 120}}, 0, 100), 10);
  EXPECT_EQ(covered_ns({{200, 300}}, 0, 100), 0);
}

TEST(CoveredNs, IgnoresEmptyAndInvertedChildren) {
  EXPECT_EQ(covered_ns({{10, 10}, {30, 20}}, 0, 100), 0);
}

TEST(SelfNs, NoChildrenIsWholeSpan) { EXPECT_EQ(self_ns({0, 100}, {}), 100); }

TEST(SelfNs, SubtractsUnionOfChildren) {
  // Two workers overlapping in [20, 30): covered = [10, 50) = 40.
  EXPECT_EQ(self_ns({0, 100}, {{10, 30}, {20, 50}}), 60);
}

TEST(SelfNs, ChildrenCoveringEverythingLeaveZero) {
  EXPECT_EQ(self_ns({0, 100}, {{-10, 60}, {50, 200}}), 0);
}

TEST(SelfNs, EmptyParentIsZero) { EXPECT_EQ(self_ns({5, 5}, {{0, 10}}), 0); }

TEST(SelfNsOf, UsesOnlyNamedChildrenOfEachParent) {
  std::vector<Span> spans;
  spans.push_back({"core.step", 0, -1, -1, 0, 100, 100, 1});
  spans.push_back({"core.rule", 1, 0, 0, 10, 40, 25, 3});
  spans.push_back({"core.rule", 2, 0, 1, 30, 60, 30, 2});
  spans.push_back({"core.emit", 3, 0, 0, 70, 90, 20, 1});  // not a child kind
  spans.push_back({"core.step", 4, -1, -1, 200, 250, 50, 1});
  spans.push_back({"core.rule", 5, 4, 0, 240, 300, 10, 1});  // clipped
  // Step 0: 100 - |[10, 60)| = 50.  Step 4: 50 - |[240, 250)| = 40.
  EXPECT_EQ(self_ns_of(spans, "core.step", {"core.rule"}), 90);
  // Adding core.emit as a child kind also covers [70, 90).
  EXPECT_EQ(self_ns_of(spans, "core.step", {"core.rule", "core.emit"}), 70);
}

TEST(Skew, MaxOverMean) {
  EXPECT_DOUBLE_EQ(skew({1, 1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(skew({4, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(skew({0, 0}), 0.0);
}

std::int64_t calls(const std::vector<Span>& spans, std::string_view name) {
  std::int64_t total = 0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.count;
  }
  return total;
}

TEST(Trace, CollectTurnsEachWorkersCallsIntoOneSpan) {
  Trace trace({"a", "b"});
  const std::int64_t step = trace.record("step", 0, 1000);
  trace.acc(0).add(10, 20);
  trace.acc(0).add(30, 35);
  std::thread other([&trace] { trace.acc(0).add(100, 200); });
  other.join();
  trace.collect(step);
  ASSERT_EQ(trace.workers(), 2);
  EXPECT_EQ(busy_ns(trace.spans(), "a"), 115);
  EXPECT_EQ(calls(trace.spans(), "a"), 3);
  EXPECT_EQ(calls(trace.spans(), "b"), 0);
  const std::vector<std::int64_t> by_worker =
      busy_by_worker(trace.spans(), "a", trace.workers());
  EXPECT_EQ(by_worker[0] + by_worker[1], 115);
  EXPECT_EQ(std::max(by_worker[0], by_worker[1]), 100);
  // Worker envelopes [10, 35) and [100, 200) are the step's children.
  EXPECT_EQ(self_ns_of(trace.spans(), "step", {"a"}), 1000 - 25 - 100);
  // Accumulators are cleared: a second collect adds nothing.
  trace.collect(step);
  EXPECT_EQ(calls(trace.spans(), "a"), 3);
}

TEST(Trace, TimedIsANoOpWithoutATrace) {
  { Timed t(nullptr, 0); }
  Trace trace({"a"});
  { Timed t(&trace, 0); }
  trace.collect(-1);
  EXPECT_EQ(calls(trace.spans(), "a"), 1);
}

}  // namespace
}  // namespace perfbench
