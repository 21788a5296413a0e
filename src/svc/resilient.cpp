#include "svc/resilient.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "core/errors.hpp"
#include "svc/fault.hpp"
#include "util/rng.hpp"

namespace epp::svc {
namespace {

using Clock = util::CancellationToken::Clock;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Degradation order: the most structured model falls back to the next
/// cheaper one. The requested method starts the chain; methods *after*
/// it in this order complete it.
constexpr std::array<Method, 3> kFallbackOrder = {
    Method::kLqn, Method::kHybrid, Method::kHistorical};

/// Allocation-free fallback chain (the fast path builds one per request).
struct Chain {
  std::array<Method, 3> methods;
  std::size_t count;
};

Chain fallback_chain(Method requested, bool fallback_enabled) {
  Chain chain{{requested, requested, requested}, 1};
  if (!fallback_enabled) return chain;
  const auto it =
      std::find(kFallbackOrder.begin(), kFallbackOrder.end(), requested);
  if (it != kFallbackOrder.end())
    for (auto next = it + 1; next != kFallbackOrder.end(); ++next)
      chain.methods[chain.count++] = *next;
  return chain;
}

bool is_retryable(ErrorCode code) {
  return code == ErrorCode::kTransientFailure;
}

/// Which failures count toward opening a circuit. Calibration gaps and
/// invalid workloads are caller errors, not server-pair health; deadline
/// hits abort the whole chain and would open breakers spuriously under
/// tight sweep deadlines.
bool trips_breaker(ErrorCode code) {
  return code == ErrorCode::kTransientFailure ||
         code == ErrorCode::kSolverDiverged || code == ErrorCode::kInternal;
}

}  // namespace

std::string PredictionError::to_string() const {
  return std::string(error_code_name(code)) + " [" +
         std::string(method_name(method)) + "/" + server + "]: " + detail;
}

ResilientPredictor::ResilientPredictor(const BatchPredictor& engine,
                                       ResilienceOptions options)
    : engine_(engine), options_(options) {
  if (options_.max_retries < 0)
    throw std::invalid_argument("ResilientPredictor: max_retries < 0");
  if (options_.breaker_failure_threshold < 0)
    throw std::invalid_argument(
        "ResilientPredictor: breaker_failure_threshold < 0");
  if (!(options_.deadline_s >= 0.0) || !(options_.backoff_base_s >= 0.0) ||
      !(options_.backoff_cap_s >= 0.0) || !(options_.breaker_cooldown_s >= 0.0))
    throw std::invalid_argument(
        "ResilientPredictor: durations must be finite and non-negative");
}

ResilientPredictor::Breaker* ResilientPredictor::breaker_lookup(
    Method method, const std::string& server) const {
  if (breakers_created_.load(std::memory_order_acquire) == 0) return nullptr;
  const std::pair<int, std::string> key{static_cast<int>(method), server};
  const std::shared_lock lock(breaker_mutex_);
  const auto it = breakers_.find(key);
  return it != breakers_.end() ? it->second.get() : nullptr;
}

ResilientPredictor::Breaker& ResilientPredictor::breaker_obtain(
    Method method, const std::string& server) const {
  const std::pair<int, std::string> key{static_cast<int>(method), server};
  const std::unique_lock lock(breaker_mutex_);
  auto& slot = breakers_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Breaker>();
    breakers_created_.fetch_add(1, std::memory_order_release);
  }
  return *slot;
}

bool ResilientPredictor::breaker_admit(Breaker& breaker) const {
  if (options_.breaker_failure_threshold == 0) return true;
  const auto state =
      static_cast<BreakerState>(breaker.state.load(std::memory_order_acquire));
  if (state == BreakerState::kClosed) return true;
  if (state == BreakerState::kOpen) {
    const std::int64_t opened = breaker.opened_at_ns.load(std::memory_order_acquire);
    const auto cooldown_ns = static_cast<std::int64_t>(
        options_.breaker_cooldown_s * 1e9);
    if (now_ns() - opened < cooldown_ns) return false;
    int expected = static_cast<int>(BreakerState::kOpen);
    if (breaker.state.compare_exchange_strong(
            expected, static_cast<int>(BreakerState::kHalfOpen),
            std::memory_order_acq_rel)) {
      breaker.probe_in_flight.store(true, std::memory_order_release);
      return true;  // we are the probe
    }
    // Someone else transitioned; fall through to half-open contention.
  }
  return !breaker.probe_in_flight.exchange(true, std::memory_order_acq_rel);
}

void ResilientPredictor::breaker_success(Breaker& breaker) const {
  breaker.consecutive_failures.store(0, std::memory_order_relaxed);
  breaker.state.store(static_cast<int>(BreakerState::kClosed),
                      std::memory_order_release);
  breaker.probe_in_flight.store(false, std::memory_order_release);
}

void ResilientPredictor::breaker_failure(Breaker& breaker) const {
  if (options_.breaker_failure_threshold == 0) return;
  const auto state =
      static_cast<BreakerState>(breaker.state.load(std::memory_order_acquire));
  if (state == BreakerState::kHalfOpen) {
    // The probe failed: straight back to open, fresh cooldown.
    breaker.opened_at_ns.store(now_ns(), std::memory_order_release);
    breaker.state.store(static_cast<int>(BreakerState::kOpen),
                        std::memory_order_release);
    breaker.probe_in_flight.store(false, std::memory_order_release);
    stats_.breaker_opens.add();
    return;
  }
  const int failures =
      breaker.consecutive_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures >= options_.breaker_failure_threshold &&
      state == BreakerState::kClosed) {
    int expected = static_cast<int>(BreakerState::kClosed);
    if (breaker.state.compare_exchange_strong(
            expected, static_cast<int>(BreakerState::kOpen),
            std::memory_order_acq_rel)) {
      breaker.opened_at_ns.store(now_ns(), std::memory_order_release);
      stats_.breaker_opens.add();
    }
  }
}

void ResilientPredictor::breaker_release(Breaker& breaker) {
  breaker.probe_in_flight.store(false, std::memory_order_release);
}

double ResilientPredictor::next_backoff_s(int attempt) const {
  const double uncapped =
      options_.backoff_base_s * std::pow(2.0, static_cast<double>(attempt));
  const double capped = std::min(uncapped, options_.backoff_cap_s);
  // Seeded jitter in [0.5, 1.0] x backoff — deterministic per draw index.
  const std::uint64_t draw =
      jitter_counter_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t state =
      options_.jitter_seed ^ ((draw + 1) * 0x9E3779B97F4A7C15ULL);
  const std::uint64_t bits = util::splitmix64(state);
  const double unit = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return capped * (0.5 + 0.5 * unit);
}

Outcome ResilientPredictor::predict(const PredictionRequest& request) const {
  return serve(request, nullptr);
}

Outcome ResilientPredictor::predict_with_deadline(
    const PredictionRequest& request, double deadline_s) const {
  if (deadline_s <= 0.0) return serve(request, nullptr);
  const auto token = util::CancellationToken::after(deadline_s);
  return serve(request, &token);
}

Outcome ResilientPredictor::serve(const PredictionRequest& request,
                                  const util::CancellationToken* budget) const {
  stats_.requests.add();

  // Reject malformed workloads before they can touch breakers, retries or
  // the fallback chain — they are invalid for every method alike.
  try {
    core::validate_workload(request.workload);
  } catch (const core::InvalidWorkloadError& error) {
    stats_.errors.add();
    return PredictionError{ErrorCode::kInvalidWorkload, request.method,
                           request.server, error.what()};
  }

  const FaultInjector* injector = engine_.options().fault;
  const bool has_deadline = options_.deadline_s > 0.0;
  const bool track_time = has_deadline || budget != nullptr ||
                          (injector != nullptr && injector->config().any());
  const auto start = track_time ? Clock::now() : Clock::time_point{};
  double virtual_s = 0.0;  // injected latency, charged against deadlines

  // Seconds of budget left across the per-request deadline and the batch
  // budget, net of virtual latency already charged. +inf when untimed.
  const auto remaining_s = [&]() -> double {
    double remaining = kInfinity;
    if (has_deadline)
      remaining = options_.deadline_s - seconds_since(start) - virtual_s;
    if (budget != nullptr) {
      if (budget->cancelled()) return std::min(remaining, 0.0);
      if (budget->has_deadline())
        remaining = std::min(
            remaining,
            std::chrono::duration<double>(budget->deadline() - Clock::now())
                    .count() -
                virtual_s);
    }
    return remaining;
  };

  const Chain chain =
      fallback_chain(request.method, options_.fallback_enabled);

  std::optional<PredictionError> primary_error;
  int total_retries = 0;
  bool deadline_hit = false;

  PredictionRequest fallback_request;  // built only when degrading
  for (std::size_t ci = 0; ci < chain.count && !deadline_hit; ++ci) {
    const Method method = chain.methods[ci];
    const PredictionRequest* attempt_request = &request;
    if (method != request.method) {
      fallback_request = request;
      fallback_request.method = method;
      attempt_request = &fallback_request;
    }

    // Healthy pairs have no breaker at all; one materializes on the
    // first breaker-worthy failure.
    Breaker* breaker = breaker_lookup(method, request.server);
    if (breaker != nullptr && !breaker_admit(*breaker)) {
      stats_.breaker_rejections.add();
      if (!primary_error)
        primary_error = PredictionError{
            ErrorCode::kCircuitOpen, method, request.server,
            "circuit open for " + std::string(method_name(method)) + "/" +
                request.server};
      continue;
    }

    for (int attempt = 0;; ++attempt) {
      double remaining = remaining_s();
      if (remaining <= 0.0) {
        deadline_hit = true;
        if (breaker != nullptr) breaker_release(*breaker);
        break;
      }
      if (injector != nullptr &&
          injector->config().for_method(method).latency_s > 0.0) {
        virtual_s += injector->injected_latency_s(method, request.server);
        remaining = remaining_s();
        if (remaining <= 0.0) {
          deadline_hit = true;
          if (breaker != nullptr) breaker_release(*breaker);
          break;
        }
      }

      PredictionError error{};
      try {
        PredictionResult prediction;
        if (std::isinf(remaining)) {
          prediction = engine_.predict(*attempt_request);
        } else {
          const auto token = util::CancellationToken::after(remaining);
          const util::CancellationScope scope(&token);
          prediction = engine_.predict(*attempt_request);
        }
        if (breaker != nullptr) breaker_success(*breaker);

        ResilientResult result;
        result.prediction = prediction;
        result.requested = request.method;
        result.served_by = method;
        result.fallback = ci > 0;
        result.retries = total_retries;
        if (track_time) result.latency_s = seconds_since(start) + virtual_s;
        stats_.served.add();
        if (result.fallback)
          stats_.fallbacks.add();
        return result;
      } catch (const std::exception& caught) {
        error = PredictionError{classify_active_exception(), method,
                                request.server, caught.what()};
      }

      if (error.code == ErrorCode::kDeadlineExceeded) {
        deadline_hit = true;
        if (breaker != nullptr) breaker_release(*breaker);
        break;
      }
      if (trips_breaker(error.code) &&
          options_.breaker_failure_threshold != 0) {
        if (breaker == nullptr)
          breaker = &breaker_obtain(method, request.server);
        breaker_failure(*breaker);
      } else if (breaker != nullptr) {
        breaker_release(*breaker);
      }
      if (!primary_error) primary_error = error;

      if (is_retryable(error.code) && attempt < options_.max_retries) {
        ++total_retries;
        stats_.retries.add();
        const double backoff = next_backoff_s(attempt);
        if (backoff > 0.0) {
          const double nap =
              std::isinf(remaining) ? backoff : std::min(backoff, remaining);
          if (nap > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(nap));
        }
        continue;
      }
      break;  // exhausted or non-retryable: next method in the chain
    }
  }

  if (deadline_hit) stats_.deadline_hits.add();

  // Last resort: replay the first chain method whose answer for this
  // quantized request the engine still caches, clearly flagged. The chain
  // can only have failed on a cached key when something outside the
  // engine refused the call first (an open breaker, a deadline).
  if (options_.serve_stale) {
    PredictionRequest replay = request;
    for (std::size_t ci = 0; ci < chain.count; ++ci) {
      replay.method = chain.methods[ci];
      const std::optional<PredictionResult> hit = engine_.cached(replay);
      if (!hit) continue;
      ResilientResult result;
      result.prediction = *hit;
      result.requested = request.method;
      result.served_by = replay.method;
      result.fallback = replay.method != request.method;
      result.stale = true;
      result.retries = total_retries;
      if (track_time) result.latency_s = seconds_since(start) + virtual_s;
      stats_.served.add();
      stats_.stale_serves.add();
      return result;
    }
  }

  stats_.errors.add();
  if (deadline_hit)
    return PredictionError{ErrorCode::kDeadlineExceeded, request.method,
                           request.server,
                           "deadline exceeded serving " +
                               std::string(method_name(request.method)) + "/" +
                               request.server};
  if (primary_error) return *primary_error;
  return PredictionError{ErrorCode::kInternal, request.method, request.server,
                         "no method attempted"};
}

std::vector<Outcome> ResilientPredictor::predict_batch(
    const std::vector<PredictionRequest>& requests, util::ThreadPool* pool,
    double batch_budget_s) const {
  std::optional<util::CancellationToken> budget;
  if (batch_budget_s > 0.0)
    budget.emplace(Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(batch_budget_s)));
  const util::CancellationToken* budget_ptr = budget ? &*budget : nullptr;

  std::vector<std::optional<Outcome>> slots(requests.size());
  const auto evaluate = [&](std::size_t i) {
    slots[i] = serve(requests[i], budget_ptr);
  };
  if (pool != nullptr && requests.size() > 1) {
    pool->parallel_for(requests.size(), evaluate, budget_ptr);
  } else {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (budget_ptr != nullptr && budget_ptr->cancelled()) break;
      evaluate(i);
    }
  }

  std::vector<Outcome> outcomes;
  outcomes.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (slots[i]) {
      outcomes.push_back(std::move(*slots[i]));
      continue;
    }
    // Never started: the batch budget expired first.
    stats_.requests.add();
    stats_.deadline_hits.add();
    stats_.errors.add();
    outcomes.push_back(PredictionError{
        ErrorCode::kDeadlineExceeded, requests[i].method, requests[i].server,
        "batch budget exhausted before the request started"});
  }
  return outcomes;
}

CapacityOutcome ResilientPredictor::max_clients_for_goal(
    Method method, const std::string& server, double goal_s,
    double buy_fraction, double think_time_s) const {
  stats_.requests.add();

  Breaker* breaker = breaker_lookup(method, server);
  if (breaker != nullptr && !breaker_admit(*breaker)) {
    stats_.breaker_rejections.add();
    stats_.errors.add();
    return PredictionError{ErrorCode::kCircuitOpen, method, server,
                           "circuit open for capacity probe"};
  }

  try {
    core::CapacityResult result;
    if (options_.deadline_s > 0.0) {
      const auto token = util::CancellationToken::after(options_.deadline_s);
      const util::CancellationScope scope(&token);
      result = engine_.predictor_for(method).max_clients_for_goal(
          server, goal_s, buy_fraction, think_time_s);
    } else {
      result = engine_.predictor_for(method).max_clients_for_goal(
          server, goal_s, buy_fraction, think_time_s);
    }
    if (breaker != nullptr) breaker_success(*breaker);
    stats_.served.add();
    return result;
  } catch (const std::exception& caught) {
    const PredictionError error{classify_active_exception(), method, server,
                                caught.what()};
    if (error.code == ErrorCode::kDeadlineExceeded) {
      stats_.deadline_hits.add();
      if (breaker != nullptr) breaker_release(*breaker);
    } else if (trips_breaker(error.code) &&
               options_.breaker_failure_threshold != 0) {
      if (breaker == nullptr) breaker = &breaker_obtain(method, server);
      breaker_failure(*breaker);
    } else if (breaker != nullptr) {
      breaker_release(*breaker);
    }
    stats_.errors.add();
    return error;
  }
}

BreakerState ResilientPredictor::breaker_state(
    Method method, const std::string& server) const {
  const std::pair<int, std::string> key{static_cast<int>(method), server};
  const std::shared_lock lock(breaker_mutex_);
  const auto it = breakers_.find(key);
  if (it == breakers_.end()) return BreakerState::kClosed;
  return static_cast<BreakerState>(
      it->second->state.load(std::memory_order_acquire));
}

void ResilientPredictor::reset() {
  {
    const std::unique_lock lock(breaker_mutex_);
    breakers_.clear();
    breakers_created_.store(0, std::memory_order_release);
  }
  stats_ = {};
}

}  // namespace epp::svc
