#include "core/evaluation.hpp"

#include <cmath>

#include "util/stats.hpp"

namespace epp::core {

std::vector<MeasuredPoint> measure_sweep(const sim::trade::ServerSpec& server,
                                         const std::vector<double>& clients,
                                         const SweepOptions& options,
                                         util::ThreadPool* pool) {
  std::vector<MeasuredPoint> points(clients.size());
  auto measure_one = [&](std::size_t i) {
    const auto n = static_cast<std::size_t>(std::llround(clients[i]));
    sim::trade::TestbedConfig config = sim::trade::mixed_workload(
        server, n, options.buy_client_fraction, options.seed + i);
    config.warmup_s = options.warmup_s;
    config.measure_s = options.measure_s;
    const sim::trade::RunResult result = sim::trade::run_testbed(config);
    points[i] = {static_cast<double>(n), result.mean_rt_s, result.p90_rt_s,
                 result.throughput_rps};
  };
  if (pool != nullptr) {
    pool->parallel_for(clients.size(), measure_one);
  } else {
    for (std::size_t i = 0; i < clients.size(); ++i) measure_one(i);
  }
  return points;
}

std::vector<hydra::DataPoint> to_data_points(
    const std::vector<MeasuredPoint>& points) {
  std::vector<hydra::DataPoint> out;
  out.reserve(points.size());
  for (const MeasuredPoint& p : points)
    out.push_back({p.clients, p.mean_rt_s, 50});
  return out;
}

std::vector<hydra::DataPoint> to_p90_data_points(
    const std::vector<MeasuredPoint>& points) {
  std::vector<hydra::DataPoint> out;
  out.reserve(points.size());
  for (const MeasuredPoint& p : points)
    out.push_back({p.clients, p.p90_rt_s, 50});
  return out;
}

TradeCalibration calibrate_lqn_from_testbed(std::uint64_t seed,
                                            util::ThreadPool* pool) {
  // "The per-request type parameters can be calibrated by taking an
  // established server offline and sending a workload consisting only of
  // that request type; the parameters are calculated from the resulting
  // throughput ... and the CPU usage of each server."  We run the browse
  // type and the buy service class (whose request stream aggregates to the
  // model's single buy entry) on AppServF at a load high enough for a
  // clean utilisation signal but below saturation.
  struct TypeRun {
    double buy_fraction;
    sim::trade::RunResult result;
  };
  std::vector<TypeRun> runs{{0.0, {}}, {1.0, {}}};
  auto run_one = [&](std::size_t i) {
    sim::trade::TestbedConfig config = sim::trade::mixed_workload(
        sim::trade::app_serv_f(), 800, runs[i].buy_fraction, seed + 1000 * i);
    config.warmup_s = 40.0;
    config.measure_s = 200.0;
    runs[i].result = sim::trade::run_testbed(config);
  };
  if (pool != nullptr) {
    pool->parallel_for(runs.size(), run_one);
  } else {
    for (std::size_t i = 0; i < runs.size(); ++i) run_one(i);
  }

  auto derive = [](const sim::trade::RunResult& r) {
    RequestTypeParams params;
    const double x = r.throughput_rps;
    params.app_demand_s = r.app_cpu_utilization / x;
    params.mean_db_calls = r.db_calls_per_request;
    const double calls_per_s = x * r.db_calls_per_request;
    params.db_cpu_per_call_s = r.db_cpu_utilization / calls_per_s;
    params.disk_per_call_s = r.disk_utilization / calls_per_s;
    return params;
  };
  TradeCalibration calibration;
  calibration.browse = derive(runs[0].result);
  calibration.buy = derive(runs[1].result);
  return calibration;
}

AccuracySummary accuracy_against(const Predictor& predictor,
                                 const std::string& server,
                                 const std::vector<MeasuredPoint>& measured,
                                 double buy_fraction, double think_time_s) {
  std::vector<double> rt_pred, rt_meas, x_pred, x_meas;
  for (const MeasuredPoint& p : measured) {
    WorkloadSpec workload;
    workload.buy_clients = p.clients * buy_fraction;
    workload.browse_clients = p.clients - workload.buy_clients;
    workload.think_time_s = think_time_s;
    rt_pred.push_back(predictor.predict_mean_rt_s(server, workload));
    rt_meas.push_back(p.mean_rt_s);
    x_pred.push_back(predictor.predict_throughput_rps(server, workload));
    x_meas.push_back(p.throughput_rps);
  }
  AccuracySummary summary;
  summary.mean_rt_pct = util::prediction_accuracy_percent(rt_pred, rt_meas);
  summary.throughput_pct = util::prediction_accuracy_percent(x_pred, x_meas);
  return summary;
}

}  // namespace epp::core
