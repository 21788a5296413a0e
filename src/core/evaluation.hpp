// Experiment harness shared by the bench binaries and examples: measured
// load sweeps on the simulated testbed (run in parallel on a thread pool),
// the paper's calibration procedures, and the accuracy metric.
#pragma once

#include <cstdint>
#include <vector>

#include "core/predictor.hpp"
#include "core/trade_model.hpp"
#include "hydra/relationships.hpp"
#include "sim/trade/testbed.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace epp::core {

/// One measured load point from the testbed ("measured" = simulator, the
/// substitution for the paper's WebSphere deployment; see DESIGN.md).
struct MeasuredPoint {
  double clients = 0.0;
  double mean_rt_s = 0.0;
  double p90_rt_s = 0.0;
  double throughput_rps = 0.0;
};

struct SweepOptions {
  double buy_client_fraction = 0.0;
  double warmup_s = 40.0;
  double measure_s = 160.0;
  std::uint64_t seed = util::Rng::kDefaultSeed;
};

/// Measure the testbed at each client count, one independent simulation
/// per point, fanned out on `pool` (sequential when pool is null).
std::vector<MeasuredPoint> measure_sweep(const sim::trade::ServerSpec& server,
                                         const std::vector<double>& clients,
                                         const SweepOptions& options = {},
                                         util::ThreadPool* pool = nullptr);

/// Convert measurements to HYDRA data points (ns samples are implicit in
/// the measurement window).
std::vector<hydra::DataPoint> to_data_points(
    const std::vector<MeasuredPoint>& points);

/// Same, but carrying the p90 response time as the metric — feeds the
/// historical method's *direct* percentile model (section 7.1).
std::vector<hydra::DataPoint> to_p90_data_points(
    const std::vector<MeasuredPoint>& points);

/// The layered queuing method's calibration procedure (section 5): run
/// single-request-type workloads on the established server and derive the
/// per-request-type processing times from throughput and CPU usage.
TradeCalibration calibrate_lqn_from_testbed(
    std::uint64_t seed = util::Rng::kDefaultSeed,
    util::ThreadPool* pool = nullptr);

/// Accuracy of a predictor against measured points (the paper's accuracy
/// percentage: 100% minus mean absolute relative error).
struct AccuracySummary {
  double mean_rt_pct = 0.0;
  double throughput_pct = 0.0;
};
AccuracySummary accuracy_against(const Predictor& predictor,
                                 const std::string& server,
                                 const std::vector<MeasuredPoint>& measured,
                                 double buy_fraction = 0.0,
                                 double think_time_s = 7.0);

}  // namespace epp::core
