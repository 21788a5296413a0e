// The three workloads. Each runs set-up, warm-up and measurement as
// separate phases in this fresh process, checks its outputs into
// `report`, and fills the end-to-end numbers and, when tracing, the
// per-layer ones.
#pragma once

#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

/// The end-to-end metrics every workload reports (peak_rss_mb is read
/// by the caller). What "operation" means is workload-specific; see
/// perfbench/README.md.
struct EndToEnd {
  double setup_s = 0.0;
  double ok_per_s = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
};

/// Per-layer values by metric name; names a workload leaves out read 0
/// (that layer is idle in that workload).
using Layers = std::map<std::string, double>;

void run_serve(const Args& args, Report& report, EndToEnd& e2e, Layers& layers);
void run_plan(const Args& args, Report& report, EndToEnd& e2e, Layers& layers);
void run_calibrate(const Args& args, Report& report, EndToEnd& e2e,
                   Layers& layers);

}  // namespace perfbench
