#include "svc/batch_predictor.hpp"

#include <cmath>
#include <stdexcept>

#include "core/errors.hpp"
#include "util/cancellation.hpp"

namespace epp::svc {
namespace {

std::int64_t snap(double value, double quantum) {
  return static_cast<std::int64_t>(std::llround(value / quantum));
}

}  // namespace

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNotCalibrated:
      return "not-calibrated";
    case ErrorCode::kSolverDiverged:
      return "solver-diverged";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kCircuitOpen:
      return "circuit-open";
    case ErrorCode::kInvalidWorkload:
      return "invalid-workload";
    case ErrorCode::kTransientFailure:
      return "transient-failure";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

// Most-derived first: InvalidWorkloadError is an invalid_argument,
// NotCalibratedError an out_of_range, SolverDivergedError / InjectedFault
// / Cancelled are runtime_errors.
ErrorCode classify_active_exception() {
  try {
    throw;
  } catch (const InjectedFault&) {
    return ErrorCode::kTransientFailure;
  } catch (const util::Cancelled&) {
    return ErrorCode::kDeadlineExceeded;
  } catch (const core::InvalidWorkloadError&) {
    return ErrorCode::kInvalidWorkload;
  } catch (const core::SolverDivergedError&) {
    return ErrorCode::kSolverDiverged;
  } catch (const core::NotCalibratedError&) {
    return ErrorCode::kNotCalibrated;
  } catch (const std::invalid_argument&) {
    // e.g. "no such predictor supplied"
    return ErrorCode::kNotCalibrated;
  } catch (const std::out_of_range&) {
    return ErrorCode::kNotCalibrated;
  } catch (const std::exception&) {
    return ErrorCode::kInternal;
  }
}

BatchPredictor::BatchPredictor(const core::Predictor* historical,
                               const core::Predictor* lqn,
                               const core::Predictor* hybrid,
                               BatchOptions options)
    : historical_(historical),
      lqn_(lqn),
      hybrid_(hybrid),
      options_(options),
      cache_(options.cache_capacity_per_shard, options.cache_shards) {
  if (options_.quantum_clients <= 0.0 || options_.quantum_think_s <= 0.0)
    throw std::invalid_argument("BatchPredictor: quanta must be positive");
}

const core::Predictor& BatchPredictor::predictor_for(Method method) const {
  const core::Predictor* predictor = nullptr;
  switch (method) {
    case Method::kHistorical:
      predictor = historical_;
      break;
    case Method::kLqn:
      predictor = lqn_;
      break;
    case Method::kHybrid:
      predictor = hybrid_;
      break;
  }
  if (predictor == nullptr)
    throw std::invalid_argument("BatchPredictor: no '" +
                                std::string(method_name(method)) +
                                "' predictor supplied");
  return *predictor;
}

core::WorkloadSpec BatchPredictor::quantized(
    const core::WorkloadSpec& workload) const {
  core::WorkloadSpec q;
  q.browse_clients = static_cast<double>(snap(workload.browse_clients,
                                              options_.quantum_clients)) *
                     options_.quantum_clients;
  q.buy_clients =
      static_cast<double>(snap(workload.buy_clients, options_.quantum_clients)) *
      options_.quantum_clients;
  q.think_time_s =
      static_cast<double>(snap(workload.think_time_s, options_.quantum_think_s)) *
      options_.quantum_think_s;
  return q;
}

CacheKey BatchPredictor::cache_key(const PredictionRequest& request) const {
  CacheKey key;
  key.method = request.method;
  key.server = request.server;
  key.browse_q = snap(request.workload.browse_clients, options_.quantum_clients);
  key.buy_q = snap(request.workload.buy_clients, options_.quantum_clients);
  key.think_q = snap(request.workload.think_time_s, options_.quantum_think_s);
  return key;
}

std::optional<PredictionResult> BatchPredictor::cached(
    const PredictionRequest& request) const {
  const auto hit = cache_.lookup(cache_key(request));
  if (!hit) return std::nullopt;
  PredictionResult result;
  result.mean_rt_s = hit->mean_rt_s;
  result.throughput_rps = hit->throughput_rps;
  result.cached = true;
  return result;
}

PredictionResult BatchPredictor::predict(
    const PredictionRequest& request) const {
  core::validate_workload(request.workload);
  if (std::optional<PredictionResult> hit = cached(request)) return *hit;

  const core::Predictor& predictor = predictor_for(request.method);
  if (options_.fault != nullptr &&
      options_.fault->should_fail(request.method, request.server))
    throw InjectedFault(request.method, request.server);
  const core::WorkloadSpec workload = quantized(request.workload);
  CachedPrediction fresh;
  fresh.mean_rt_s = predictor.predict_mean_rt_s(request.server, workload);
  fresh.throughput_rps =
      predictor.predict_throughput_rps(request.server, workload);
  cache_.insert(cache_key(request), fresh);
  PredictionResult result;
  result.mean_rt_s = fresh.mean_rt_s;
  result.throughput_rps = fresh.throughput_rps;
  return result;
}

std::vector<PredictionResult> BatchPredictor::predict_batch(
    const std::vector<PredictionRequest>& requests,
    util::ThreadPool* pool) const {
  std::vector<PredictionResult> results(requests.size());
  // One failing request must not discard the rest of the batch, so each
  // slot captures its own error code instead of letting it propagate
  // through parallel_for (which would drop every other result).
  const auto evaluate = [&](std::size_t i) {
    try {
      results[i] = predict(requests[i]);
    } catch (const std::exception&) {
      results[i] = PredictionResult{};
      results[i].error = classify_active_exception();
    }
  };
  if (pool != nullptr && requests.size() > 1) {
    pool->parallel_for(requests.size(), evaluate);
  } else {
    for (std::size_t i = 0; i < requests.size(); ++i) evaluate(i);
  }
  return results;
}

}  // namespace epp::svc
