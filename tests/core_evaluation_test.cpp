#include "core/evaluation.hpp"

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"

namespace epp::core {
namespace {

TEST(Evaluation, MeasureSweepReturnsOnePointPerLoad) {
  const auto points = measure_sweep(sim::trade::app_serv_f(),
                                    {100.0, 300.0},
                                    {0.0, 10.0, 30.0, 42});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].clients, 100.0);
  EXPECT_DOUBLE_EQ(points[1].clients, 300.0);
  EXPECT_GT(points[1].throughput_rps, points[0].throughput_rps);
  EXPECT_GT(points[0].p90_rt_s, points[0].mean_rt_s);
}

TEST(Evaluation, ParallelSweepMatchesSequential) {
  util::ThreadPool pool(4);
  const SweepOptions options{0.0, 10.0, 30.0, 7};
  const auto sequential =
      measure_sweep(sim::trade::app_serv_f(), {150.0, 450.0}, options);
  const auto parallel =
      measure_sweep(sim::trade::app_serv_f(), {150.0, 450.0}, options, &pool);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_DOUBLE_EQ(sequential[i].mean_rt_s, parallel[i].mean_rt_s);
    EXPECT_DOUBLE_EQ(sequential[i].throughput_rps, parallel[i].throughput_rps);
  }
}

TEST(Evaluation, DataPointConversions) {
  const std::vector<MeasuredPoint> points{{100.0, 0.01, 0.02, 14.0}};
  const auto mean_points = to_data_points(points);
  ASSERT_EQ(mean_points.size(), 1u);
  EXPECT_DOUBLE_EQ(mean_points[0].metric_s, 0.01);
  const auto p90_points = to_p90_data_points(points);
  EXPECT_DOUBLE_EQ(p90_points[0].metric_s, 0.02);
}

TEST(Evaluation, AccuracyAgainstEmptyIsPerfect) {
  // Degenerate but legal: no measured points -> vacuous 100%.
  class Zero final : public Predictor {
   public:
    std::string name() const override { return "zero"; }
    double predict_mean_rt_s(const std::string&,
                             const WorkloadSpec&) const override {
      return 1.0;
    }
    double predict_throughput_rps(const std::string&,
                                  const WorkloadSpec&) const override {
      return 1.0;
    }
    double predict_max_throughput_rps(const std::string&,
                                      double) const override {
      return 1.0;
    }
  };
  const Zero predictor;
  const AccuracySummary acc = accuracy_against(predictor, "s", {});
  EXPECT_DOUBLE_EQ(acc.mean_rt_pct, 100.0);
  EXPECT_DOUBLE_EQ(acc.throughput_pct, 100.0);
}

}  // namespace
}  // namespace epp::core
