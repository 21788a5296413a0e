// epp_perfbench: one run of one benchmark workload.
//
//   epp_perfbench --workload serve|plan|calibrate --seed N --seconds S
//                 --trace 0|1 [--trace-out FILE]
//
// Prints notes for people, then as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exit code 0 means the
// run completed (check "correct"); 2 means it could not run.
#include <exception>
#include <iostream>
#include <stdexcept>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every workload reports all of these; see README.md for what each means
// on each workload.
constexpr MetricName kLayerMetrics[] = {
    {"net.client_write_us", "us"},
    {"net.bytes_per_request", "B"},
    {"net.bytes_per_response", "B"},
    {"serve.overhead_p50_us", "us"},
    {"serve.overhead_p99_us", "us"},
    {"serve.queue_peak", "count"},
    {"serve.shed", "count"},
    {"serve.promote_ms", "ms"},
    {"serve.gen_late_p99_ms", "ms"},
    {"svc.predictor_p50_us", "us"},
    {"svc.predictor_p99_us", "us"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.cache_hits", "count"},
    {"svc.cache_misses", "count"},
    {"svc.cache_evictions", "count"},
    {"svc.batch_ms", "ms"},
    {"svc.pool_efficiency", "ratio"},
    {"svc.failed_cells", "count"},
    {"svc.fallbacks", "count"},
    {"svc.errors", "count"},
    {"lqn.solve_p50_us", "us"},
    {"lqn.solve_p99_us", "us"},
    {"lqn.iterations_mean", "count"},
    {"lqn.iterations_max", "count"},
    {"lqn.diverged_cells", "count"},
    {"core.historical_us", "us"},
    {"core.hybrid_us", "us"},
    {"core.hybrid_startup_ms", "ms"},
    {"rm.decision_p50_ms", "ms"},
    {"rm.evals_per_decision", "count"},
    {"rm.failed_probes", "count"},
    {"rm.probes", "count"},
    {"rm.plain_diverged", "count"},
    {"sim.saturation_s", "s"},
    {"sim.sweep_s", "s"},
    {"calib.lqn_fit_s", "s"},
    {"hydra.fit_ms", "ms"},
    {"sim.completions", "count"},
    {"sim.completions_per_s", "1/s"},
    {"util.replication_speedup", "ratio"},
    {"self.net_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.svc_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.lqn_ms", "ms"},
    {"self.rm_ms", "ms"},
    {"self.sim_ms", "ms"},
    {"self.calib_ms", "ms"},
    {"self.hydra_ms", "ms"},
    {"self.util_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Adds self.<layer>_ms for every traced layer and writes the spans to
/// args.trace_out when set.
void finish_trace(const Args& args, Report& report, Layers& layers) {
  const std::vector<trace::Span> spans = trace::collect();
  for (const auto& [layer, ms] : trace::self_ms_by_layer(spans))
    layers["self." + layer + "_ms"] = ms;
  if (!args.trace_out.empty() && !trace::write_jsonl(args.trace_out, spans))
    report.note("could not write spans to " + args.trace_out);
  report.note(std::to_string(spans.size()) + " spans" +
              (args.trace_out.empty() ? "" : " written to " + args.trace_out));
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report report;
  EndToEnd e2e;
  Layers layers;
  trace::enable(args.trace);
  if (args.workload == "serve")
    run_serve(args, report, e2e, layers);
  else if (args.workload == "plan")
    run_plan(args, report, e2e, layers);
  else if (args.workload == "calibrate")
    run_calibrate(args, report, e2e, layers);
  else
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  trace::enable(false);

  if (args.trace) {
    finish_trace(args, report, layers);
    for (const MetricName& m : kLayerMetrics) {
      const auto it = layers.find(m.name);
      report.metric(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
      if (it != layers.end()) layers.erase(it);
    }
    if (!layers.empty())
      throw std::logic_error("layer metric '" + layers.begin()->first +
                             "' is missing from the metric table");
  } else {
    report.metric("setup_s", e2e.setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ok_per_s", e2e.ok_per_s, "1/s");
    report.metric("p50_ms", e2e.p50_ms, "ms");
    report.metric("tail_ms", e2e.tail_ms, "ms");
  }
  if (report.attempted == 0) report.fail_check("no operation was attempted");
  report.print();
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "epp_perfbench: " << error.what() << '\n';
    return 2;
  }
}
