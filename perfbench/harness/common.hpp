// Shared pieces of the benchmark harness: command-line arguments, the
// result report (human lines plus the final JSON line), order
// statistics, the repeated warm-start set-up and a few clock helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string trace_out;
};

/// Parses the command-line flags; throws std::invalid_argument on anything
/// malformed or missing.
Args parse_args(int argc, char** argv);

/// Everything one run reports. `metric()` values go into the final JSON
/// line; `note()` lines are printed above it for people.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);
  /// Marks the run incorrect and records why.
  void fail_check(const std::string& why);

  bool correct() const noexcept { return correct_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the notes, then the JSON line as the last line of stdout.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// The `nproc` the workloads size their thread counts from (at least 1).
std::size_t hardware_threads();

/// A warm start: the checked-in bundle read and parsed, promoted through
/// the registry (EPP-SEM gate + predictor build), then the hybrid
/// start-up run for every catalog architecture at both buy mixes the
/// workloads use.
struct WarmStart {
  std::unique_ptr<epp::serve::BundleRegistry> registry;
  std::shared_ptr<const epp::serve::ServingVersion> version;
  double promote_s = 0.0;         // BundleRegistry::promote alone
  double hybrid_startup_s = 0.0;  // hybrid start-up alone
};

/// Checked-in bundle every workload warm-starts from (relative to the
/// checkout root, which is the working directory).
inline constexpr const char* kBundlePath = "tests/lint_corpus/clean/trade.epp";

/// Warm start from kBundlePath. Throws std::runtime_error when the bundle
/// cannot be read, parsed or promoted.
WarmStart warm_start();

/// Buy mixes every workload's hybrid start-up covers (percent).
inline constexpr double kBuyPcts[] = {0.0, 25.0};

/// The workload of `clients` users with `buy_pct` percent buyers.
epp::core::WorkloadSpec mixed_load(double clients, double buy_pct);

/// Set-ups in the set-up phase. One set-up takes a few milliseconds, but
/// the host's speed shifts by up to 1.7x for seconds at a time, so a
/// median over the first fraction of a second of a run follows whatever
/// speed the host had then.
inline constexpr std::size_t kSetupReps = 41;

/// Times repeated set-ups made by `make`; setup_s is their median.
/// `phase()` is the set-up phase. `probe()` times one more set-up and
/// throws it away: plan and calibrate probe between measured steps, so
/// the sample spans the whole run, as the other metrics' samples do.
template <typename Make>
class SetupTimer {
 public:
  explicit SetupTimer(Make make) : make_(std::move(make)) {}

  /// kSetupReps timed set-ups; returns the last. Each earlier one dies
  /// outside the timed region, through its own destructor, which tears
  /// its members down in reverse order of construction.
  auto phase() {
    auto kept = timed();
    for (std::size_t rep = 1; rep < kSetupReps; ++rep) {
      auto fresh = timed();
      std::swap(kept, fresh);
    }
    return kept;
  }

  void probe() { (void)timed(); }

  double median_s() const { return quantile(times_, 0.5); }

 private:
  auto timed() {
    const Clock::time_point start = Clock::now();
    auto made = make_();
    times_.push_back(seconds_since(start));
    return made;
  }

  Make make_;
  std::vector<double> times_;
};

/// Bit-identical comparison of two doubles.
bool same_bits(double a, double b);

}  // namespace perfbench
