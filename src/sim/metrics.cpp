#include "sim/metrics.hpp"

#include <stdexcept>

namespace epp::sim {

void MetricsCollector::record(const std::string& service_class,
                              double issue_time, double completion_time) {
  if (completion_time < issue_time)
    throw std::invalid_argument("MetricsCollector: completion before issue");
  // Filter on completion time: at saturation a request's queueing delay is
  // large, and filtering on issue time would silently exclude the last
  // ~response-time seconds of the measurement window from the throughput
  // count (undercounting max throughput by R/window).
  if (completion_time < warmup_time_) return;
  const double rt = completion_time - issue_time;
  per_class_[service_class].add(rt);
  rt_sum_ += rt;
  ++total_completions_;
}

std::size_t MetricsCollector::class_handle(const std::string& service_class) {
  handles_.push_back(&per_class_[service_class]);  // map nodes are stable
  return handles_.size() - 1;
}

void MetricsCollector::record(std::size_t handle, double issue_time,
                              double completion_time) {
  if (completion_time < issue_time)
    throw std::invalid_argument("MetricsCollector: completion before issue");
  if (completion_time < warmup_time_) return;
  const double rt = completion_time - issue_time;
  handles_[handle]->add(rt);
  rt_sum_ += rt;
  ++total_completions_;
}

std::size_t MetricsCollector::completions(
    const std::string& service_class) const {
  const auto it = per_class_.find(service_class);
  return it == per_class_.end() ? 0 : it->second.count();
}

double MetricsCollector::mean_response_time(
    const std::string& service_class) const {
  const auto it = per_class_.find(service_class);
  return it == per_class_.end() ? 0.0 : it->second.mean();
}

double MetricsCollector::mean_response_time() const {
  if (total_completions_ == 0) return 0.0;
  return rt_sum_ / static_cast<double>(total_completions_);
}

double MetricsCollector::response_time_quantile(
    const std::string& service_class, double q) const {
  const auto it = per_class_.find(service_class);
  return it == per_class_.end() ? 0.0 : it->second.quantile(q);
}

double MetricsCollector::response_time_quantile(double q) const {
  // The union of the class sets is the multiset of every recorded sample,
  // so its order statistics are those of one combined set.
  util::SampleSet merged;
  merged.reserve(total_completions_);
  for (const auto& [_, samples] : per_class_)
    for (const double rt : samples.samples()) merged.add(rt);
  return merged.quantile(q);
}

double MetricsCollector::throughput(double now) const {
  const double window = now - warmup_time_;
  if (window <= 0.0) return 0.0;
  return static_cast<double>(total_completions_) / window;
}

double MetricsCollector::throughput(const std::string& service_class,
                                    double now) const {
  const double window = now - warmup_time_;
  if (window <= 0.0) return 0.0;
  return static_cast<double>(completions(service_class)) / window;
}

const util::SampleSet& MetricsCollector::samples(
    const std::string& service_class) const {
  static const util::SampleSet kEmpty;
  const auto it = per_class_.find(service_class);
  return it == per_class_.end() ? kEmpty : it->second;
}

std::vector<std::string> MetricsCollector::service_classes() const {
  std::vector<std::string> names;
  names.reserve(per_class_.size());
  for (const auto& [name, _] : per_class_) names.push_back(name);
  return names;
}

}  // namespace epp::sim
