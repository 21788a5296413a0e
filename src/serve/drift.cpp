#include "serve/drift.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace epp::serve {

const char* health_state_name(HealthState state) noexcept {
  switch (state) {
    case HealthState::kWarming:
      return "warming";
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDrifting:
      return "drifting";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& out, HealthState state) {
  return out << health_state_name(state);
}

void DriftDetector::observe(double predicted_rt_s, double observed_rt_s) {
  if (!(predicted_rt_s > 0.0) || !(observed_rt_s > 0.0)) return;
  const double error = (observed_rt_s - predicted_rt_s) / predicted_rt_s;
  if (!std::isfinite(error)) return;

  const std::lock_guard lock(mutex_);
  ++observations_;
  mean_ += (error - mean_) / static_cast<double>(observations_);
  sum_up_ += error - mean_ - options_.delta;
  min_up_ = std::min(min_up_, sum_up_);
  sum_down_ += error - mean_ + options_.delta;
  max_down_ = std::max(max_down_, sum_down_);
  if (drifting_ || observations_ < options_.min_samples) return;
  const bool alarm = (sum_up_ - min_up_) > options_.lambda ||
                     (max_down_ - sum_down_) > options_.lambda;
  if (alarm) {
    drifting_ = true;
    ++trips_;
  }
}

HealthState DriftDetector::state() const {
  const std::lock_guard lock(mutex_);
  if (drifting_) return HealthState::kDrifting;
  return observations_ < options_.min_samples ? HealthState::kWarming
                                              : HealthState::kHealthy;
}

DriftSnapshot DriftDetector::snapshot() const {
  const std::lock_guard lock(mutex_);
  DriftSnapshot snapshot;
  snapshot.observations = observations_;
  snapshot.mean_error = mean_;
  snapshot.gap_up = sum_up_ - min_up_;
  snapshot.gap_down = max_down_ - sum_down_;
  snapshot.trips = trips_;
  if (drifting_) {
    snapshot.state = HealthState::kDrifting;
  } else {
    snapshot.state = observations_ < options_.min_samples
                         ? HealthState::kWarming
                         : HealthState::kHealthy;
  }
  return snapshot;
}

void DriftDetector::reset() {
  const std::lock_guard lock(mutex_);
  observations_ = 0;
  mean_ = 0.0;
  sum_up_ = 0.0;
  min_up_ = 0.0;
  sum_down_ = 0.0;
  max_down_ = 0.0;
  drifting_ = false;
}

}  // namespace epp::serve
