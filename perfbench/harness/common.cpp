#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "calib/bundle.hpp"
#include "calib/catalog.hpp"
#include "lint/diagnostic.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
      if (!(args.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
      used = value.size();
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != 0 && used != value.size())
      throw std::invalid_argument("malformed value for " + flag + ": " + value);
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail_check(const std::string& why) {
  correct_ = false;
  notes_.push_back("CHECK FAILED: " + why);
}

void Report::print() const {
  for (const std::string& line : notes_) std::cout << line << '\n';
  for (const Metric& m : metrics_) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", m.value);
    std::cout << "  " << m.name << " = " << buffer << ' ' << m.unit << '\n';
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics_[i].name
         << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double weight = position - static_cast<double>(lo);
  return values[lo] + weight * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

epp::core::WorkloadSpec mixed_load(double clients, double buy_pct) {
  epp::core::WorkloadSpec workload;
  workload.buy_clients = clients * buy_pct / 100.0;
  workload.browse_clients = clients - workload.buy_clients;
  return workload;
}

WarmStart warm_start() {
  const std::string bundle_path = kBundlePath;
  WarmStart warm;
  std::ifstream in(bundle_path);
  if (!in) throw std::runtime_error("cannot read bundle '" + bundle_path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  epp::lint::Diagnostics structural;
  epp::calib::BundleParseInfo info;
  epp::calib::CalibrationBundle bundle =
      epp::calib::parse_bundle_text(text.str(), bundle_path, structural, &info);
  if (structural.has_errors())
    throw std::runtime_error("bundle '" + bundle_path +
                             "' failed structural lint");

  warm.registry = std::make_unique<epp::serve::BundleRegistry>();
  const Clock::time_point promote_start = Clock::now();
  const epp::serve::PromotionResult promoted =
      warm.registry->promote(std::move(bundle), bundle_path, &info);
  warm.promote_s = seconds_since(promote_start);
  if (!promoted.accepted) throw std::runtime_error(promoted.message);
  warm.version = warm.registry->active();

  const Clock::time_point startup_start = Clock::now();
  const epp::core::HybridPredictor& hybrid = *warm.version->predictors.hybrid;
  for (const std::string& server : epp::calib::server_names())
    for (const double buy_pct : kBuyPcts)
      (void)hybrid.predict_max_throughput_rps(server, buy_pct / 100.0);
  warm.hybrid_startup_s = seconds_since(startup_start);
  return warm;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace perfbench
