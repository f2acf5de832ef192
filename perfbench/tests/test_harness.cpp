// Unit tests of the benchmark harness: the quantile helper the reported
// percentiles come from, the op ledger that counts failures, span self
// time and coverage, the per-layer reduction and the result line.
#include "harness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesLinearlyBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({50.0, 10.0, 40.0, 20.0, 30.0}, 0.9), 46.0);
  EXPECT_DOUBLE_EQ(quantile({10.0, 20.0, 30.0, 40.0, 50.0}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile({10.0, 20.0, 30.0, 40.0, 50.0}, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Quantile, RejectsEmptySampleAndBadLevel) {
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW((void)quantile({1.0}, std::nan("")), std::invalid_argument);
}

TEST(OpLedger, CountsFailuresAndKeepsTheFirstReason) {
  OpLedger ledger;
  ledger.record(true);
  ledger.record(false, "first");
  ledger.record(false, "second");
  EXPECT_EQ(ledger.attempted(), 3u);
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_EQ(ledger.first_failure(), "first");
}

TEST(OpLedger, AttemptCountsThrowsAndReasonsAsFailures) {
  OpLedger ledger;
  ledger.attempt([] { return std::string(); });
  ledger.attempt([]() -> std::string { throw std::runtime_error("boom"); });
  ledger.attempt([] { return std::string("mismatch"); });
  EXPECT_EQ(ledger.attempted(), 3u);
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_EQ(ledger.first_failure(), "threw: boom");
}

TEST(SpanSheet, NestedSpansKeepSelfTimeAndCountOnceTowardCoverage) {
  SpanSheet spans;
  spans.timed("parent", [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    spans.timed("child", [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
  });
  const int value = spans.timed("sibling", [] { return 42; });
  EXPECT_EQ(value, 42);
  EXPECT_GT(spans.seconds("child"), 0.0015);
  EXPECT_GT(spans.seconds("parent"), 0.0015);
  EXPECT_LT(spans.seconds("parent"), spans.seconds("parent") + spans.seconds("child"));
  EXPECT_NEAR(spans.covered_seconds(),
              spans.seconds("parent") + spans.seconds("child") + spans.seconds("sibling"),
              1e-12);
  EXPECT_EQ(spans.seconds("never"), 0.0);
}

TEST(SpanSheet, SpanClosesWhenTheCallThrows) {
  SpanSheet spans;
  EXPECT_THROW(spans.timed("fails", []() -> int { throw std::runtime_error("x"); }),
               std::runtime_error);
  spans.timed("after", [] {});
  EXPECT_GE(spans.seconds("fails"), 0.0);
  EXPECT_NEAR(spans.covered_seconds(), spans.seconds("fails") + spans.seconds("after"), 1e-12);
}

TEST(LayerTable, ReducesToPerOpMediansWithMissingSpansAsZero) {
  LayerTable table;
  for (int op = 0; op < 3; ++op) {
    SpanSheet spans;
    spans.timed("a", [] {});
    if (op == 0) spans.timed("b", [] {});
    spans.count("c", op + 1.0);
    table.add_op(spans, 1.0);
  }
  const MetricValues out = table.reduce(/*untraced_median_seconds=*/0.5);
  EXPECT_EQ(out.at("b_ms"), 0.0);  // median of {t, 0, 0}
  EXPECT_GE(out.at("a_ms"), 0.0);
  EXPECT_EQ(out.at("c"), 2.0);
  EXPECT_DOUBLE_EQ(out.at("trace.overhead"), 2.0);
  EXPECT_LT(out.at("trace.coverage"), 0.01);
}

TEST(ResultJson, PrintsEveryRequestedMetricWithItsUnit) {
  const std::string line = result_json(true, 12, 1, {{"x_ms", "ms"}, {"n", "count"}},
                                       {{"x_ms", 1.25}, {"n", 3.0}, {"unused", 9.0}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": "
            "{\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"n\": {\"value\": 3, \"unit\": \"count\"}}}");
}

TEST(ResultJson, RefusesMissingOrNonFiniteMetrics) {
  EXPECT_THROW((void)result_json(true, 1, 0, {{"x", "ms"}}, {}), std::logic_error);
  EXPECT_THROW((void)result_json(true, 1, 0, {{"x", "ms"}},
                                 {{"x", std::numeric_limits<double>::infinity()}}),
               std::logic_error);
}

TEST(Calibration, ScalesByTheMedianOfTheLatestKernelTimes) {
  Calibration calibration(/*threads=*/2);
  EXPECT_THROW((void)calibration.scale(), std::logic_error);
  calibration.sample();
  EXPECT_GT(calibration.last_ms(), 0.0);
  EXPECT_DOUBLE_EQ(calibration.scale(), Calibration::kReferenceMs / calibration.last_ms());
  Latencies latencies;
  latencies.add(10.0, calibration);
  EXPECT_EQ(latencies.raw_ms, std::vector<double>{10.0});
  EXPECT_DOUBLE_EQ(latencies.ms.at(0), 10.0 * calibration.scale());
  EXPECT_NEAR(calibration.footprint_mib(), 34.0, 1e-9);  // 32 MiB data + 2 MiB index

  // With more samples than the window, the scale comes from one of the
  // latest kScaleWindow samples (their median), not necessarily the last.
  for (std::size_t i = 0; i < Calibration::kScaleWindow + 1; ++i) calibration.sample();
  const double scaled_ms = Calibration::kReferenceMs / calibration.scale();
  EXPECT_GT(scaled_ms, 0.0);
  EXPECT_GE(calibration.median_ms(), 0.0);
  EXPECT_THROW(Calibration(/*threads=*/0), std::invalid_argument);
}

/// Allocate and touch `mib` MiB, so it is resident, then free it.
void touch_and_free(std::size_t mib) {
  std::vector<char> block(mib << 20, 1);
  asm volatile("" : : "g"(block.data()) : "memory");  // keep the writes
}

TEST(PeakRss, ResetForgetsFreedMemoryAndTracksNewPeaks) {
  touch_and_free(96);
  const double before = peak_rss_mib();
  reset_peak_rss();
  const double after = peak_rss_mib();
  EXPECT_GT(after, 0.0);
  EXPECT_LT(after, before - 64.0);
  touch_and_free(96);
  EXPECT_GE(peak_rss_mib(), after + 90.0);
}

TEST(SameBits, DistinguishesSignedZeros) {
  EXPECT_TRUE(same_bits(1.5, 1.5));
  EXPECT_FALSE(same_bits(0.0, -0.0));
  EXPECT_TRUE(same_bits(std::vector<double>{1.0, 2.0}, std::vector<double>{1.0, 2.0}));
  EXPECT_FALSE(same_bits(std::vector<double>{0.0}, std::vector<double>{-0.0}));
  EXPECT_FALSE(same_bits(std::vector<int>{1}, std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace perfbench
