#include "serve/registry.hpp"

#include <exception>
#include <utility>

namespace epp::serve {

BundleRegistry::BundleRegistry(RegistryOptions options)
    : options_(std::move(options)) {
  // The chain-coverage rules must judge the candidate under the serving
  // configuration it will actually run with.
  options_.verify.resilience = options_.resilience;
}

PromotionResult BundleRegistry::promote(calib::CalibrationBundle bundle,
                                        const std::string& source,
                                        const calib::BundleParseInfo* info) {
  PromotionResult result;
  if (options_.gate) {
    lint::verify_bundle(bundle, source, info, options_.verify,
                        result.findings);
    if (result.findings.has_errors()) {
      const util::MutexLock lock(mutex_);
      stats_.rejections.add();
      result.active_version = active_ != nullptr ? active_->version : 0;
      result.message =
          "candidate '" + source + "' rejected by the EPP-SEM gate (" +
          std::to_string(result.findings.count(lint::Severity::kError)) +
          " error(s)); version " + std::to_string(result.active_version) +
          " keeps serving";
      return result;
    }
  }

  auto candidate = std::make_shared<ServingVersion>();
  candidate->source = source;
  candidate->bundle = std::move(bundle);
  try {
    candidate->predictors =
        calib::make_predictors(candidate->bundle, options_.batch);
    candidate->resilient = std::make_unique<svc::ResilientPredictor>(
        *candidate->predictors.batch, options_.resilience);
  } catch (const std::exception& error) {
    const util::MutexLock lock(mutex_);
    stats_.rejections.add();
    result.active_version = active_ != nullptr ? active_->version : 0;
    result.message = "candidate '" + source +
                     "' failed predictor construction: " + error.what();
    return result;
  }

  const util::MutexLock lock(mutex_);
  candidate->version = next_version_++;
  if (active_ != nullptr) {
    history_.push_back(active_);
    while (history_.size() > options_.keep_history)
      history_.erase(history_.begin());
  }
  active_ = std::move(candidate);
  stats_.promotions.add();
  result.accepted = true;
  result.active_version = active_->version;
  result.message = "promoted '" + source + "' as version " +
                   std::to_string(active_->version);
  return result;
}

bool BundleRegistry::rollback() {
  const util::MutexLock lock(mutex_);
  if (history_.empty()) return false;
  active_ = std::move(history_.back());
  history_.pop_back();
  stats_.rollbacks.add();
  return true;
}

std::shared_ptr<const ServingVersion> BundleRegistry::active() const {
  const util::MutexLock lock(mutex_);
  return active_;
}

std::uint64_t BundleRegistry::active_version() const {
  const util::MutexLock lock(mutex_);
  return active_ != nullptr ? active_->version : 0;
}

RegistryStats BundleRegistry::stats() const {
  const util::MutexLock lock(mutex_);
  RegistryStats stats = stats_;
  stats.active_version =
      util::Counter{active_ != nullptr ? active_->version : 0};
  return stats;
}

}  // namespace epp::serve
