// plan: offline capacity planning. Cold-cache grid passes of the batch
// engine on a pool (the epp_sweep path) and Algorithm 1 allocations
// through the resilient path with the hybrid method (the paper's
// choice). lqn, core, the svc batch/pool and rm do the work; no sockets,
// no simulator. Every cell is a cache miss and an insert. Only the traced
// run ends with a short serve segment, for the net and serve layers.
#include <algorithm>
#include <sstream>

#include "calib/catalog.hpp"
#include "core/errors.hpp"
#include "rm/manager.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using epp::svc::Method;
using epp::svc::PredictionRequest;
using epp::svc::PredictionResult;

// 50 ... 1400 clients in steps of 5: about 2x the AppServS knee (~614
// clients), so the grid crosses the band where the LQN solver does not
// converge (ROADMAP item 1). Those cells fail and are counted.
constexpr double kMinClients = 50.0, kMaxClients = 1400.0, kStepClients = 5.0;
constexpr Method kMethods[] = {Method::kHistorical, Method::kLqn,
                               Method::kHybrid};
constexpr int kWarmupPasses = 3;
constexpr double kServeSegmentSeconds = 4.0;
// Algorithm 1 populations, in this fixed order: the hybrid predictor
// memoizes a fit per (server, whole buy percent) from the first mix that
// lands in it, so the order of decisions is part of their input.
constexpr double kPopulations[] = {500,  1000, 1500, 2000, 2500,
                                   3000, 3500, 4000, 4500, 5000};

std::vector<PredictionRequest> make_grid(std::uint64_t seed) {
  std::vector<PredictionRequest> grid;
  for (const std::string& server : epp::calib::server_names())
    for (const double buy_pct : kBuyPcts)
      for (double clients = kMinClients; clients <= kMaxClients;
           clients += kStepClients)
        for (const Method method : kMethods)
          grid.push_back({method, server, mixed_load(clients, buy_pct)});
  // The seed only orders the cells; every cell is evaluated each pass.
  epp::util::Rng rng(seed, 0x91A4);
  for (std::size_t i = grid.size(); i > 1; --i)
    std::swap(grid[i - 1], grid[rng.below(i)]);
  return grid;
}

bool same_result(const PredictionResult& a, const PredictionResult& b) {
  return a.ok() == b.ok() && a.error == b.error &&
         (!a.ok() || (same_bits(a.mean_rt_s, b.mean_rt_s) &&
                      same_bits(a.throughput_rps, b.throughput_rps)));
}

/// Index of the first cell where two passes differ, or npos.
std::size_t first_mismatch(const std::vector<PredictionResult>& a,
                           const std::vector<PredictionResult>& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_result(a[i], b[i])) return i;
  return std::string::npos;
}

struct Decision {
  epp::rm::Allocation allocation;
  std::uint64_t probes = 0;
  double seconds = 0.0;
};

bool same_allocation(const epp::rm::Allocation& a, const epp::rm::Allocation& b) {
  return a.per_server == b.per_server &&
         same_bits(a.unallocated_scaled, b.unallocated_scaled) &&
         a.prediction_evaluations == b.prediction_evaluations &&
         a.failed_probes == b.failed_probes;
}

}  // namespace

void run_plan(const Args& args, Report& report, EndToEnd& e2e, Layers& layers) {
  // --- set-up ---------------------------------------------------------------
  std::vector<double> promote_s, startup_s;
  SetupTimer setup([&] {
    WarmStart w = warm_start();
    promote_s.push_back(w.promote_s);
    startup_s.push_back(w.hybrid_startup_s);
    return w;
  });
  WarmStart warm = setup.phase();
  const epp::serve::ServingVersion& version = *warm.version;
  epp::svc::BatchPredictor& batch = *version.predictors.batch;
  // Its own resilient layer (same options as the served one) so each
  // decision can reset the breakers.
  epp::svc::ResilientPredictor resilient(batch,
                                         warm.registry->options().resilience);
  const epp::rm::ResourceManager manager(*version.predictors.hybrid, {});
  const epp::calib::CalibrationBundle& bundle = version.bundle;
  const std::vector<epp::rm::PoolServer> pool_servers = epp::rm::standard_pool(
      bundle.max_throughput("AppServS"), bundle.max_throughput("AppServF"),
      bundle.max_throughput("AppServVF"));
  epp::util::ThreadPool pool(hardware_threads());
  const std::vector<PredictionRequest> grid = make_grid(args.seed);

  auto cold_pass = [&](epp::util::ThreadPool* on) {
    batch.clear_cache();
    const trace::Scope span(on ? "svc.batch_pass" : "svc.batch_serial");
    return batch.predict_batch(grid, on);
  };
  auto decide = [&](double population) {
    // Breakers and counters start clean each decision, so its failed
    // probes do not depend on the decisions before it.
    resilient.reset();
    Decision d;
    const Clock::time_point start = Clock::now();
    {
      const trace::Scope span("rm.decision");
      d.allocation = manager.allocate(epp::rm::standard_classes(population),
                                      pool_servers, resilient, Method::kHybrid);
    }
    d.seconds = seconds_since(start);
    d.probes = resilient.stats().requests;
    return d;
  };
  // Each cycle of decisions starts on an empty cache, so what it hits
  // does not depend on the pass or cycle that ran before it.
  auto cold_cycle = [&] {
    batch.clear_cache();
    std::vector<Decision> cycle;
    for (const double population : kPopulations)
      cycle.push_back(decide(population));
    return cycle;
  };

  // --- warm-up: the first pooled passes run at a third of the steady
  // rate, and the first decision cycle fills the hybrid fits --------------
  for (int pass = 0; pass < kWarmupPasses; ++pass) (void)cold_pass(&pool);
  const std::vector<Decision> reference = cold_cycle();

  // --- measurement: each step is one pooled pass, one cycle of decisions
  // and one set-up probe, so all three sample the whole run -----------------
  std::vector<PredictionResult> first_pass;
  std::vector<double> pass_s[2];  // [traced]
  std::size_t failed_cells_per_pass = 0;
  epp::svc::CacheStats pass_cache;  // of one cold pass
  std::vector<double> decision_s, cycle_mean_s, cycle_max_s;
  std::uint64_t cycle_probes = 0, cycle_failed = 0;
  double cycle_evals = 0.0;
  const Clock::time_point measure_start = Clock::now();
  for (std::size_t step = 0;
       step < 4 || seconds_since(measure_start) < args.seconds; ++step) {
    // A traced run alternates passes with spans on and off; the gap
    // between the two is the tracing overhead.
    trace::enable(args.trace && step % 2 == 1);
    const Clock::time_point start = Clock::now();
    std::vector<PredictionResult> results = cold_pass(&pool);
    pass_s[step % 2 == 1 && args.trace].push_back(seconds_since(start));
    trace::enable(args.trace);
    std::size_t failed = 0;
    for (const PredictionResult& r : results) failed += r.ok() ? 0 : 1;
    report.attempted += grid.size();
    report.failed += failed;
    if (first_pass.empty()) {
      first_pass = std::move(results);
      failed_cells_per_pass = failed;
      pass_cache = batch.cache_stats();
    } else if (const std::size_t at = first_mismatch(first_pass, results);
               at != std::string::npos) {
      report.fail_check("plan: pooled pass " + std::to_string(step) +
                        " differs from the first at cell " + std::to_string(at));
      break;
    }

    const std::vector<Decision> cycle = cold_cycle();
    double cycle_s = 0.0, slowest_s = 0.0;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const Decision& d = cycle[i];
      decision_s.push_back(d.seconds);
      cycle_s += d.seconds;
      slowest_s = std::max(slowest_s, d.seconds);
      report.attempted += d.probes;
      report.failed += static_cast<std::uint64_t>(d.allocation.failed_probes);
      if (!same_allocation(d.allocation, reference[i].allocation) ||
          d.probes != reference[i].probes)
        report.fail_check("plan: decision at population " +
                          std::to_string(kPopulations[i]) +
                          " differs from its warm-up run");
      if (step == 0) {
        cycle_probes += d.probes;
        cycle_failed += static_cast<std::uint64_t>(d.allocation.failed_probes);
        cycle_evals += d.allocation.prediction_evaluations;
      }
    }
    cycle_mean_s.push_back(cycle_s / static_cast<double>(cycle.size()));
    cycle_max_s.push_back(slowest_s);
    setup.probe();
  }
  e2e.setup_s = setup.median_s();

  // --- output check: the pooled grid equals a serial evaluation ------------
  const Clock::time_point serial_start = Clock::now();
  const std::vector<PredictionResult> serial = cold_pass(nullptr);
  const double serial_s = seconds_since(serial_start);
  if (const std::size_t at = first_mismatch(first_pass, serial);
      at != std::string::npos)
    report.fail_check("plan: pooled grid differs from the serial evaluation "
                      "at cell " + std::to_string(at));

  std::vector<double> cell_rates;
  for (const double s : pass_s[0])
    cell_rates.push_back(static_cast<double>(grid.size() - failed_cells_per_pass) / s);
  e2e.ok_per_s = quantile(cell_rates, 0.5);
  // The ten populations cost different amounts, so the median of single
  // decisions jumps between them; the mean over one cycle of all ten does
  // not. p50_ms is the median of those cycle means.
  e2e.p50_ms = quantile(cycle_mean_s, 0.5) * 1e3;
  // The tail is the slowest decision of a cycle, median over cycles. A
  // percentile over all decisions would sit on the edge between two
  // populations' blocks and read a sample maximum, which host stalls set.
  e2e.tail_ms = quantile(cycle_max_s, 0.5) * 1e3;

  std::ostringstream note;
  note << "plan: grid " << grid.size() << " cells (" << failed_cells_per_pass
       << " fail per pass), " << pass_s[0].size() + pass_s[1].size()
       << " pooled passes on " << pool.size() << " threads; "
       << decision_s.size() << " decisions, " << cycle_failed << " of "
       << cycle_probes << " probes fail per cycle of "
       << std::size(kPopulations) << "\n"
       << "  cells_per_s = " << e2e.ok_per_s << " 1/s\n"
       << "  decisions_per_s = " << 1e3 / e2e.p50_ms
       << " 1/s (one over the median cycle mean)\n"
       << "  decision mean (median of " << cycle_mean_s.size()
       << " cycles) / slowest per cycle (median) = " << e2e.p50_ms << " / "
       << e2e.tail_ms << " ms (n=" << decision_s.size() << ")";
  report.note(note.str());

  if (!args.trace) return;

  // --- per-layer numbers (traced run only) ---------------------------------
  layers["serve.promote_ms"] = quantile(promote_s, 0.5) * 1e3;
  layers["core.hybrid_startup_ms"] = quantile(startup_s, 0.5) * 1e3;
  layers["svc.batch_ms"] = quantile(pass_s[0], 0.5) * 1e3;
  layers["trace.overhead_pct"] =
      100.0 * (quantile(pass_s[1], 0.5) / quantile(pass_s[0], 0.5) - 1.0);
  const double pooled_per_thread =
      static_cast<double>(grid.size()) / quantile(pass_s[0], 0.5) /
      static_cast<double>(pool.size());
  layers["svc.pool_efficiency"] =
      pooled_per_thread / (static_cast<double>(grid.size()) / serial_s);
  layers["svc.cache_hits"] = static_cast<double>(pass_cache.hits);
  layers["svc.cache_misses"] = static_cast<double>(pass_cache.misses);
  layers["svc.cache_hit_ratio"] = pass_cache.hit_ratio();
  layers["svc.cache_evictions"] = static_cast<double>(pass_cache.evictions);
  layers["svc.failed_cells"] = static_cast<double>(failed_cells_per_pass);
  layers["svc.errors"] = static_cast<double>(cycle_failed);
  layers["rm.decision_p50_ms"] = quantile(decision_s, 0.5) * 1e3;
  layers["rm.evals_per_decision"] =
      cycle_evals / static_cast<double>(std::size(kPopulations));
  layers["rm.failed_probes"] = static_cast<double>(cycle_failed);
  layers["rm.probes"] = static_cast<double>(cycle_probes);

  // Plain Algorithm 1 with the hybrid predictor, for the failure count
  // the resilient path plans around.
  double plain_diverged = 0.0;
  for (const double population : kPopulations) {
    try {
      (void)manager.allocate(epp::rm::standard_classes(population),
                             pool_servers);
    } catch (const epp::core::SolverDivergedError&) {
      plain_diverged += 1.0;
    }
  }
  layers["rm.plain_diverged"] = plain_diverged;

  // Serial per-cell breakdown over the same grid, calling the predictors
  // directly so each layer's calls get their own spans.
  std::vector<double> solve_us, historical_us, hybrid_us, iterations;
  double diverged = 0.0;
  {
    const trace::Scope span("core.breakdown");
    for (const PredictionRequest& cell : grid) {
      const epp::core::WorkloadSpec workload = batch.quantized(cell.workload);
      const Clock::time_point start = Clock::now();
      switch (cell.method) {
        case Method::kHistorical: {
          const trace::Scope s("core.historical");
          (void)version.predictors.historical->predict_mean_rt_s(cell.server,
                                                                 workload);
          historical_us.push_back(seconds_since(start) * 1e6);
          break;
        }
        case Method::kHybrid: {
          const trace::Scope s("core.hybrid");
          (void)version.predictors.hybrid->predict_mean_rt_s(cell.server,
                                                             workload);
          hybrid_us.push_back(seconds_since(start) * 1e6);
          break;
        }
        case Method::kLqn: {
          const trace::Scope s("lqn.solve");
          try {
            const epp::lqn::SolveResult solved =
                version.predictors.lqn->solve(cell.server, workload);
            iterations.push_back(solved.iterations);
          } catch (const epp::core::SolverDivergedError& error) {
            iterations.push_back(error.iterations);
            diverged += 1.0;
          }
          solve_us.push_back(seconds_since(start) * 1e6);
          break;
        }
      }
    }
  }
  layers["lqn.solve_p50_us"] = quantile(solve_us, 0.5);
  layers["lqn.solve_p99_us"] = quantile(solve_us, 0.99);
  double iteration_sum = 0.0;
  for (const double n : iterations) iteration_sum += n;
  layers["lqn.iterations_mean"] =
      iteration_sum / static_cast<double>(iterations.size());
  layers["lqn.iterations_max"] =
      *std::max_element(iterations.begin(), iterations.end());
  layers["lqn.diverged_cells"] = diverged;
  layers["core.historical_us"] = quantile(historical_us, 0.5);
  layers["core.hybrid_us"] = quantile(hybrid_us, 0.5);

  // serve is not a gated workload: its latency follows the host's wake-up
  // latency (see README.md). A short serve run here keeps the net and
  // serve layers measured.
  Args serving = args;
  serving.seconds = kServeSegmentSeconds;
  Report serve_report;
  EndToEnd serve_e2e;
  Layers serve_layers;
  run_serve(serving, serve_report, serve_e2e, serve_layers);
  if (!serve_report.correct())
    report.fail_check("plan: the serve segment failed its output check");
  for (const auto& [name, value] : serve_layers)
    if (name.starts_with("net.") || name.starts_with("svc.predictor_") ||
        (name.starts_with("serve.") && name != "serve.promote_ms"))
      layers[name] = value;
}

}  // namespace perfbench
