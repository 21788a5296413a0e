// calibrate: the paper's calibration start-up cost (section 8.4).
// Repeated cold calib::calibrate() at the fixed calibration seeds, with
// the mix benchmark on and four replications per saturation benchmark
// fanned out on a pool of nproc threads. sim, calib, hydra and the pool
// do the work; lqn, svc, net and serve are idle.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "calib/bundle.hpp"
#include "core/evaluation.hpp"
#include "core/historical_predictor.hpp"
#include "hydra/relationships.hpp"
#include "lint/verify.hpp"
#include "sim/replicate.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace calib = epp::calib;
namespace core = epp::core;
namespace sim = epp::sim;

constexpr std::size_t kReplications = 4;
// One calibration takes about as long as a hundred set-ups.
constexpr std::size_t kProbesPerCalibration = 4;

const calib::ServerRecord& reference_of(
    const std::vector<calib::ServerRecord>& servers) {
  for (const calib::ServerRecord& record : servers)
    if (record.established) return record;
  throw std::logic_error("catalog has no established server");
}

/// calib::calibrate() step by step through the same public functions,
/// with a span around each layer's call. The output check requires its
/// bundle to equal calibrate()'s byte for byte, so the two cannot drift
/// apart unnoticed.
calib::CalibrationBundle traced_calibrate(const calib::CalibrationOptions& o) {
  const trace::Scope root("calib.calibrate");
  calib::CalibrationBundle bundle;
  bundle.lqn_seed = o.lqn_seed;
  bundle.mix_seed = o.mix_seed;
  bundle.sweep_seed = o.sweep_seed;
  bundle.servers = calib::trade_catalog();

  sim::trade::MeasurementOptions measurement;
  measurement.replications = o.replications;
  measurement.fluid_threshold = o.fluid_threshold;
  measurement.pool = o.pool;
  {
    const trace::Scope span("sim.saturation");
    o.pool->parallel_for(bundle.servers.size(), [&](std::size_t i) {
      calib::ServerRecord& record = bundle.servers[i];
      record.max_throughput_rps = sim::trade::measure_max_throughput(
          record.sim, 0.0, o.sweep_seed, measurement);
    });
  }
  {
    const trace::Scope span("calib.lqn_fit");
    bundle.lqn = core::calibrate_lqn_from_testbed(o.lqn_seed, o.pool);
  }

  const calib::ServerRecord& reference = reference_of(bundle.servers);
  core::SweepOptions sweep;
  sweep.seed = o.sweep_seed;
  auto measure = [&](const calib::ServerRecord& record,
                     std::vector<double> clients) {
    const trace::Scope span("sim.sweep");
    return core::measure_sweep(record.sim, clients, sweep, o.pool);
  };
  const auto grad_points = measure(reference, {300.0, 600.0});
  {
    const trace::Scope span("hydra.fit_gradient");
    bundle.gradient_m = epp::hydra::fit_gradient(
        {grad_points[0].clients, grad_points[1].clients},
        {grad_points[0].throughput_rps, grad_points[1].throughput_rps});
  }
  core::HistoricalPredictor historical(bundle.gradient_m);
  for (const calib::ServerRecord& record : bundle.servers) {
    if (!record.established) continue;
    const double knee = record.max_throughput_rps / bundle.gradient_m;
    const auto lower = measure(record, {0.25 * knee, 0.60 * knee});
    const auto upper = measure(record, {1.25 * knee, 1.70 * knee});
    const trace::Scope span("hydra.fit_established");
    historical.calibrate_established(record.name, core::to_data_points(lower),
                                     core::to_data_points(upper),
                                     record.max_throughput_rps);
    historical.calibrate_established_p90(
        record.name, core::to_p90_data_points(lower),
        core::to_p90_data_points(upper), record.max_throughput_rps);
  }
  {
    const trace::Scope span("hydra.fit_new");
    for (const calib::ServerRecord& record : bundle.servers) {
      if (record.established) continue;
      historical.register_new_server(record.name, record.max_throughput_rps);
      historical.register_new_server_p90(record.name, record.max_throughput_rps);
    }
  }
  const double mix_pct = 100.0 * o.mix_buy_fraction;
  double mix_max = 0.0;
  {
    const trace::Scope span("sim.saturation");
    mix_max = sim::trade::measure_max_throughput(
        reference.sim, o.mix_buy_fraction, o.mix_seed, measurement);
  }
  {
    const trace::Scope span("hydra.fit_mix");
    historical.calibrate_mix({0.0, mix_pct},
                             {reference.max_throughput_rps, mix_max});
  }
  bundle.mix_points = {{0.0, reference.max_throughput_rps}, {mix_pct, mix_max}};
  bundle.mean_model = historical.model();
  bundle.p90_model = historical.p90_model();
  return bundle;
}

double span_sum_s(const std::vector<trace::Span>& spans, const char* prefix) {
  double total = 0.0;
  for (const trace::Span& span : spans)
    if (std::string(span.name).rfind(prefix, 0) == 0)
      total += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
  return total;
}

std::size_t completions(const sim::trade::RunResult& result) {
  std::size_t total = 0;
  for (const auto& [name, cls] : result.per_class) total += cls.completions;
  return total;
}

}  // namespace

void run_calibrate(const Args& args, Report& report, EndToEnd& e2e,
                   Layers& layers) {
  // --- set-up: the pool, plus the same warm start as the other workloads,
  // whose registry supplies the EPP-SEM options the check verifies with --
  std::vector<double> promote_s, startup_s;
  struct Setup {
    std::unique_ptr<epp::util::ThreadPool> pool;
    WarmStart warm;
  };
  SetupTimer timer([&] {
    Setup s{std::make_unique<epp::util::ThreadPool>(hardware_threads()),
            warm_start()};
    promote_s.push_back(s.warm.promote_s);
    startup_s.push_back(s.warm.hybrid_startup_s);
    return s;
  });
  Setup setup = timer.phase();
  epp::util::ThreadPool& pool = *setup.pool;
  const epp::lint::VerifyOptions verify = setup.warm.registry->options().verify;
  calib::CalibrationOptions options;
  options.measure_mix = true;
  options.replications = kReplications;
  options.pool = &pool;

  // --- warm-up: one calibration, which is also the reference output -----
  report.attempted += 1;
  const std::string reference = calib::to_text(calib::calibrate(options));
  auto check = [&](const calib::CalibrationBundle& bundle, const char* how) {
    if (calib::to_text(bundle) != reference)
      report.fail_check(std::string("calibrate: a ") + how +
                        " bundle differs from the first one");
    epp::lint::Diagnostics findings;
    epp::lint::verify_bundle(bundle, "<calibrated>", nullptr, verify, findings);
    if (findings.has_errors())
      report.fail_check(std::string("calibrate: a ") + how +
                        " bundle fails the EPP-SEM verifier");
  };

  // --- measurement: a traced run alternates plain calibrate() with the
  // traced step-by-step one; their gap is the tracing overhead. Set-up
  // probes between calibrations spread setup_s's sample over the run ------
  std::vector<double> times[2];  // [traced]
  const Clock::time_point measure_start = Clock::now();
  for (std::size_t i = 0;
       i < 3 || seconds_since(measure_start) < args.seconds; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    report.attempted += 1;
    const Clock::time_point start = Clock::now();
    const calib::CalibrationBundle bundle =
        traced ? traced_calibrate(options) : calib::calibrate(options);
    times[traced].push_back(seconds_since(start));
    check(bundle, traced ? "traced" : "calibrate()");
    for (std::size_t probe = 0; probe < kProbesPerCalibration; ++probe)
      timer.probe();
  }
  e2e.setup_s = timer.median_s();
  const double median_s = quantile(times[0], 0.5);
  e2e.ok_per_s = 1.0 / median_s;
  e2e.p50_ms = median_s * 1e3;
  // 20-40 calibrations per run leave no sample beyond any higher
  // percentile, so the tail this workload supports is the median.
  e2e.tail_ms = e2e.p50_ms;

  std::ostringstream note;
  note << "calibrate: " << times[0].size() + times[1].size()
       << " calibrations on " << pool.size() << " threads, "
       << kReplications << " replications, mix benchmark on\n"
       << "  calibration_s = " << median_s << " s (n=" << times[0].size()
       << ")";
  report.note(note.str());
  if (!args.trace) return;

  // --- per-layer numbers (traced run only) ---------------------------------
  const std::vector<trace::Span> spans = trace::collect();
  const double traced_runs = static_cast<double>(times[1].size());
  layers["sim.saturation_s"] = span_sum_s(spans, "sim.saturation") / traced_runs;
  layers["sim.sweep_s"] = span_sum_s(spans, "sim.sweep") / traced_runs;
  layers["calib.lqn_fit_s"] = span_sum_s(spans, "calib.lqn_fit") / traced_runs;
  layers["hydra.fit_ms"] = span_sum_s(spans, "hydra.") * 1e3 / traced_runs;
  layers["trace.overhead_pct"] =
      100.0 * (quantile(times[1], 0.5) / median_s - 1.0);
  layers["serve.promote_ms"] = quantile(promote_s, 0.5) * 1e3;
  layers["core.hybrid_startup_ms"] = quantile(startup_s, 0.5) * 1e3;

  // The replication fan-out on its own: one saturation benchmark's
  // configuration, four replications on 1 thread and on the pool.
  const calib::ServerRecord& ref = reference_of(calib::trade_catalog());
  const auto clients = static_cast<std::size_t>(
      std::ceil(186.0 * ref.sim.speed * 7.0 * 1.8));
  sim::trade::TestbedConfig config =
      sim::trade::typical_workload(ref.sim, clients, options.sweep_seed);
  config.warmup_s = 40.0;
  config.measure_s = 120.0;
  sim::ReplicationOptions serial{kReplications, nullptr, false};
  sim::ReplicationOptions pooled{kReplications, &pool, false};
  Clock::time_point start = Clock::now();
  sim::ReplicatedResult one;
  {
    const trace::Scope span("util.replicate_serial");
    one = sim::run_replications(config, serial);
  }
  const double serial_s = seconds_since(start);
  start = Clock::now();
  sim::ReplicatedResult many;
  {
    const trace::Scope span("util.replicate_pooled");
    many = sim::run_replications(config, pooled);
  }
  const double pooled_s = seconds_since(start);
  if (completions(one.summary) != completions(many.summary) ||
      !same_bits(one.summary.mean_rt_s, many.summary.mean_rt_s))
    report.fail_check("calibrate: replications differ between 1 and " +
                      std::to_string(pool.size()) + " threads");
  layers["sim.completions"] = static_cast<double>(completions(many.summary));
  layers["sim.completions_per_s"] =
      static_cast<double>(completions(many.summary)) / pooled_s;
  layers["util.replication_speedup"] = serial_s / pooled_s;
}

}  // namespace perfbench
