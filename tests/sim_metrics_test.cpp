#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace epp::sim {
namespace {

TEST(Metrics, RecordsAfterWarmupOnly) {
  MetricsCollector m(60.0);
  m.record("browse", 30.0, 35.0);   // inside warm-up: dropped
  m.record("browse", 61.0, 61.5);   // counted
  EXPECT_EQ(m.completions("browse"), 1u);
  EXPECT_DOUBLE_EQ(m.mean_response_time("browse"), 0.5);
}

TEST(Metrics, PerClassAndAggregateMeans) {
  MetricsCollector m(0.0);
  m.record("a", 0.0, 1.0);
  m.record("b", 0.0, 3.0);
  EXPECT_DOUBLE_EQ(m.mean_response_time("a"), 1.0);
  EXPECT_DOUBLE_EQ(m.mean_response_time("b"), 3.0);
  EXPECT_DOUBLE_EQ(m.mean_response_time(), 2.0);

  // Two interleaved classes with rounding-sensitive magnitudes: the
  // aggregate mean and quantiles must equal, bit for bit, those of one
  // SampleSet fed the same sequence.
  MetricsCollector interleaved(0.0);
  const std::size_t browse = interleaved.class_handle("browse");
  util::SampleSet reference;
  for (int i = 0; i < 1000; ++i) {
    const double issue = 0.37 * i;
    const double rt = 0.1 * (i % 7) + 1e-3 * std::sqrt(i + 1.0) + 1e-9 * i;
    if (i % 3 == 0)
      interleaved.record("buy", issue, issue + rt);
    else
      interleaved.record(browse, issue, issue + rt);
    reference.add((issue + rt) - issue);
  }
  EXPECT_EQ(interleaved.total_completions(), reference.count());
  EXPECT_EQ(interleaved.mean_response_time(), reference.mean());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(interleaved.response_time_quantile(q), reference.quantile(q))
        << q;
}

TEST(Metrics, ThroughputUsesMeasuredWindow) {
  MetricsCollector m(10.0);
  for (int i = 0; i < 20; ++i) m.record("c", 10.0 + i, 10.5 + i);
  EXPECT_DOUBLE_EQ(m.throughput(30.0), 1.0);
  EXPECT_DOUBLE_EQ(m.throughput("c", 30.0), 1.0);
}

TEST(Metrics, ThroughputZeroBeforeWarmupEnds) {
  MetricsCollector m(10.0);
  EXPECT_DOUBLE_EQ(m.throughput(5.0), 0.0);
}

TEST(Metrics, QuantilePerClass) {
  MetricsCollector m(0.0);
  for (int i = 1; i <= 100; ++i)
    m.record("q", 0.0, static_cast<double>(i));
  EXPECT_NEAR(m.response_time_quantile("q", 0.90), 90.1, 0.2);
  EXPECT_NEAR(m.response_time_quantile(0.5), 50.5, 0.2);
}

TEST(Metrics, UnknownClassIsEmpty) {
  MetricsCollector m(0.0);
  EXPECT_EQ(m.completions("nope"), 0u);
  EXPECT_DOUBLE_EQ(m.mean_response_time("nope"), 0.0);
  EXPECT_EQ(m.samples("nope").count(), 0u);
}

TEST(Metrics, CompletionBeforeIssueThrows) {
  MetricsCollector m(0.0);
  EXPECT_THROW(m.record("x", 5.0, 4.0), std::invalid_argument);
}

TEST(Metrics, ServiceClassEnumeration) {
  MetricsCollector m(0.0);
  m.record("alpha", 0.0, 1.0);
  m.record("beta", 0.0, 1.0);
  const auto names = m.service_classes();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
}

}  // namespace
}  // namespace epp::sim
