// Online drift detection between served predictions and measured RTs.
//
// A calibration bundle is a snapshot: the HYDRA/LQN relationships were
// fit to one workload, and production workloads move. The serving tier
// closes the loop the black-box-monitoring line of work describes —
// observe live telemetry, detect divergence from the model, trigger a
// refit — with a streaming detector that costs O(1) per observation and
// never stores samples.
//
// Statistic: two-sided Page–Hinkley over the *relative* prediction error
//   e_t = (observed_rt - predicted_rt) / predicted_rt
// so a 100 ms model error on a 2 s page and on a 50 ms page are judged
// proportionally. PH maintains the cumulative deviation of e_t from its
// own running mean minus a slack delta; the test statistic is the gap
// between that sum and its running extremum, and an alarm fires when the
// gap exceeds lambda. Both directions are armed: the model drifting
// optimistic (observed slower, positive errors) and pessimistic
// (observed faster) both mean the bundle no longer describes reality.
//
// The alarm *latches*: once kDrifting, the state holds until reset() —
// a drifting bundle does not heal by accident, it gets replaced (the
// server resets the detector when the registry swaps versions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <tuple>

#include "util/annotations.hpp"
#include "util/counter.hpp"
#include "util/lock_rank.hpp"

namespace epp::serve {

/// Server health as carried in the response `health` byte.
enum class HealthState : std::uint8_t {
  kWarming = 0,   // fewer than min_samples observations since reset
  kHealthy = 1,   // observations tracking the active bundle
  kDrifting = 2,  // Page–Hinkley alarm latched; bundle needs a refit
};

const char* health_state_name(HealthState state) noexcept;
/// Writes health_state_name(state) (how render_kv prints `health=`).
std::ostream& operator<<(std::ostream& out, HealthState state);

struct DriftOptions {
  /// Slack per observation: mean relative-error shifts below this are
  /// treated as noise, not drift.
  double delta = 0.05;
  /// Alarm threshold on the PH gap statistic. With constant relative
  /// error e after warmup, the alarm trips after roughly
  /// lambda / (|e| - delta) further observations.
  double lambda = 2.0;
  /// Observations before the detector may alarm (warmup).
  std::size_t min_samples = 16;
};

struct DriftSnapshot {
  std::uint64_t observations = 0;
  double mean_error = 0.0;   // running mean of relative error
  double gap_up = 0.0;       // PH gap, optimistic-model direction
  double gap_down = 0.0;     // PH gap, pessimistic-model direction
  HealthState state = HealthState::kWarming;
  std::uint64_t trips = 0;   // alarms latched since construction

  static constexpr std::tuple kFields{
      util::field("health", &DriftSnapshot::state),
      util::field("drift_observations", &DriftSnapshot::observations),
      util::field("drift_mean_error", &DriftSnapshot::mean_error),
      util::field("drift_gap_up", &DriftSnapshot::gap_up),
      util::field("drift_gap_down", &DriftSnapshot::gap_down),
      util::field("drift_trips", &DriftSnapshot::trips)};
};

class DriftDetector {
 public:
  explicit DriftDetector(DriftOptions options = {}) noexcept
      : options_(options) {}

  /// Feed one (predicted, observed) RT pair. Non-positive or non-finite
  /// inputs are ignored (a failed prediction carries no drift signal).
  /// Thread-safe.
  void observe(double predicted_rt_s, double observed_rt_s);

  HealthState state() const;
  DriftSnapshot snapshot() const;

  /// Forget everything (new bundle version: its errors start clean).
  /// The trip counter survives — it counts alarms over the server's
  /// lifetime, not the bundle's.
  void reset();

  const DriftOptions& options() const noexcept { return options_; }

 private:
  DriftOptions options_;
  mutable util::RankedMutex mutex_{EPP_LOCK_RANK(50), "serve.drift"};
  std::uint64_t observations_ = 0;
  double mean_ = 0.0;      // running mean of e_t
  double sum_up_ = 0.0;    // cumulative (e_t - mean_t - delta)
  double min_up_ = 0.0;    // running minimum of sum_up_
  double sum_down_ = 0.0;  // cumulative (e_t - mean_t + delta)
  double max_down_ = 0.0;  // running maximum of sum_down_
  bool drifting_ = false;
  std::uint64_t trips_ = 0;
};

}  // namespace epp::serve
