// Fault-tolerant prediction serving on top of the batch engine.
//
// The paper's resource manager treats predictors as infallible functions;
// in practice a serving layer sees miscalibrated models, diverging
// solvers, malformed workloads and transient evaluation failures. The
// ResilientPredictor wraps BatchPredictor with the standard reliability
// toolkit, tuned for deterministic testing:
//
//   * typed outcomes — every request returns Expected<ResilientResult>:
//     either a served prediction (annotated with who served it and how)
//     or a PredictionError with a machine-readable code. Nothing escapes
//     as an exception.
//   * deadlines — a per-request budget (plus an optional per-batch
//     budget) enforced cooperatively: the active token is installed as
//     the thread-local ambient token (util/cancellation.hpp) and polled
//     inside the MVA / layered-solver loops. Virtual latency charged by
//     the FaultInjector counts against the deadline without any sleeps.
//   * retries — transient failures (injected faults) retry with capped
//     exponential backoff and seeded jitter.
//   * fallback chain — lqn degrades to hybrid then historical (hybrid to
//     historical); results served by a fallback are flagged. As a last
//     resort the first chain method whose answer for this quantized
//     request is still in the engine's cache is replayed, flagged `stale`.
//   * circuit breakers — per (method, server); N consecutive breaker-
//     worthy failures open the circuit, a cooldown later one half-open
//     probe is admitted and either closes or re-opens it.
//
// Fast-path contract: with no deadline, no batch budget and no latency
// injection the serving layer performs no clock reads and no allocation
// beyond the wrapped engine — see bench/resilience_overhead.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "core/predictor.hpp"
#include "svc/batch_predictor.hpp"
#include "util/annotations.hpp"
#include "util/cancellation.hpp"
#include "util/counter.hpp"
#include "util/lock_rank.hpp"
#include "util/thread_pool.hpp"

namespace epp::svc {

/// A served request's failure: the typed code (svc/batch_predictor.hpp)
/// plus the method and server it is attributed to and free-form detail.
struct PredictionError {
  ErrorCode code = ErrorCode::kInternal;
  Method method = Method::kHistorical;  // method the error is attributed to
  std::string server;
  std::string detail;

  std::string to_string() const;
};

/// Minimal expected-style result carrier: exactly one of a value or a
/// PredictionError. value()/error() on the wrong alternative throw
/// std::logic_error — misuse is a caller bug, not a served failure.
template <typename T>
class Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}                  // NOLINT
  Expected(PredictionError error) : state_(std::move(error)) {}    // NOLINT

  bool ok() const noexcept { return std::holds_alternative<T>(state_); }

  const T& value() const {
    if (!ok()) throw std::logic_error("Expected: value() on an error");
    return std::get<T>(state_);
  }
  const PredictionError& error() const {
    if (ok()) throw std::logic_error("Expected: error() on a value");
    return std::get<PredictionError>(state_);
  }

 private:
  std::variant<T, PredictionError> state_;
};

/// A served prediction plus its provenance: which method was asked,
/// which answered, and what degradation (fallback / stale) or effort
/// (retries, latency) it took.
struct ResilientResult {
  PredictionResult prediction;
  Method requested = Method::kHistorical;
  Method served_by = Method::kHistorical;
  bool fallback = false;  // served_by differs from requested
  bool stale = false;     // replayed from the engine cache
  int retries = 0;        // transient-failure retries spent
  /// Wall time plus injected virtual latency. Only tracked when a
  /// deadline, batch budget or latency injection is armed; 0 otherwise
  /// (the fast path reads no clocks).
  double latency_s = 0.0;
};

using Outcome = Expected<ResilientResult>;
using CapacityOutcome = Expected<core::CapacityResult>;

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct ResilienceOptions {
  /// Per-request deadline in seconds; 0 disables (and removes all clock
  /// reads from the serving path).
  double deadline_s = 0.0;
  /// Retries for *transient* failures only (injected faults). Solver
  /// divergence and calibration gaps are deterministic and never retried.
  int max_retries = 2;
  double backoff_base_s = 0.0005;
  double backoff_cap_s = 0.010;
  /// Seed for backoff jitter (tools pass calib::kRetryJitterSeed).
  std::uint64_t jitter_seed = 0xB0FFC0DEULL;
  /// Consecutive breaker-worthy failures that open a (method, server)
  /// circuit; 0 disables breaking entirely.
  int breaker_failure_threshold = 5;
  /// Open-state dwell before one half-open probe is admitted. 0 admits
  /// the probe immediately (useful for deterministic tests).
  double breaker_cooldown_s = 1.0;
  /// When the whole chain fails, replay the first chain method whose
  /// answer for the same quantized request is still in the engine cache
  /// (flagged stale). The cache's LRU bound is the only bound.
  bool serve_stale = true;
  /// Degrade lqn -> hybrid -> historical when the requested method fails.
  bool fallback_enabled = true;
};

/// Aggregate counters since construction (or reset()).
struct ResilienceStats {
  util::Counter requests;
  util::Counter served;
  util::Counter errors;              // outcomes returned as errors
  util::Counter retries;
  util::Counter fallbacks;           // served by a non-requested method
  util::Counter stale_serves;
  util::Counter deadline_hits;
  util::Counter breaker_rejections;  // calls refused while open
  util::Counter breaker_opens;       // closed/half-open -> open edges

  static constexpr std::tuple kFields{
      util::field("requests", &ResilienceStats::requests),
      util::field("served", &ResilienceStats::served),
      util::field("errors", &ResilienceStats::errors),
      util::field("retries", &ResilienceStats::retries),
      util::field("fallbacks", &ResilienceStats::fallbacks),
      util::field("stale_serves", &ResilienceStats::stale_serves),
      util::field("deadline_hits", &ResilienceStats::deadline_hits),
      util::field("breaker_rejections", &ResilienceStats::breaker_rejections),
      util::field("breaker_opens", &ResilienceStats::breaker_opens)};
};
static_assert(util::lists_every_counter<ResilienceStats>());

class ResilientPredictor {
 public:
  /// Non-owning: the engine (and its predictors) must outlive this.
  explicit ResilientPredictor(const BatchPredictor& engine,
                              ResilienceOptions options = {});

  /// Serve one request through validation, the breaker, the retry loop,
  /// the fallback chain and stale replay. Never throws on request
  /// failure. Thread-safe.
  Outcome predict(const PredictionRequest& request) const;

  /// Serve one request under a caller-supplied deadline that overrides
  /// options().deadline_s for this call only — the serving daemon maps
  /// per-request protocol deadlines through here onto the same
  /// cancellation machinery batch budgets use. deadline_s <= 0 falls back
  /// to the configured deadline.
  Outcome predict_with_deadline(const PredictionRequest& request,
                                double deadline_s) const;

  /// Serve every request (fanned out on `pool` when given). When
  /// batch_budget_s > 0 the whole batch shares that budget on top of the
  /// per-request deadline; requests that never start once it expires
  /// return kDeadlineExceeded. Results align with input order.
  std::vector<Outcome> predict_batch(
      const std::vector<PredictionRequest>& requests,
      util::ThreadPool* pool = nullptr, double batch_budget_s = 0.0) const;

  /// SLA capacity probe with breaker admission, deadline and typed
  /// errors; no fallback chain (capacity is a per-method question).
  CapacityOutcome max_clients_for_goal(Method method,
                                       const std::string& server,
                                       double goal_s,
                                       double buy_fraction = 0.0,
                                       double think_time_s = 7.0) const;

  /// Current stored state of a (method, server) breaker (kClosed when the
  /// pair has never failed).
  BreakerState breaker_state(Method method, const std::string& server) const;

  ResilienceStats stats() const { return stats_; }
  /// Drop breakers and counters. Stale answers live in the engine's cache
  /// and survive reset().
  void reset();

  const ResilienceOptions& options() const noexcept { return options_; }
  const BatchPredictor& engine() const noexcept { return engine_; }

 private:
  struct Breaker {
    std::atomic<int> consecutive_failures{0};
    std::atomic<int> state{0};  // BreakerState underlying value
    std::atomic<std::int64_t> opened_at_ns{0};
    std::atomic<bool> probe_in_flight{false};
  };

  Outcome serve(const PredictionRequest& request,
                const util::CancellationToken* budget) const;

  /// Existing breaker for the pair, or nullptr. Healthy traffic never
  /// creates breakers (they materialize on first breaker-worthy failure,
  /// via breaker_obtain), so the no-failure fast path skips the map —
  /// and the lock — entirely behind one relaxed atomic load.
  Breaker* breaker_lookup(Method method, const std::string& server) const;
  Breaker& breaker_obtain(Method method, const std::string& server) const;
  /// Admission decision; sets *probe when the call is the half-open probe.
  bool breaker_admit(Breaker& breaker) const;
  void breaker_success(Breaker& breaker) const;
  void breaker_failure(Breaker& breaker) const;
  /// Release a half-open probe without a verdict (deadline, non-breaker
  /// error): the breaker stays half-open for the next caller.
  static void breaker_release(Breaker& breaker);

  double next_backoff_s(int attempt) const;

  const BatchPredictor& engine_;
  ResilienceOptions options_;

  mutable util::RankedSharedMutex breaker_mutex_{EPP_LOCK_RANK(60),
                                               "svc.resilient.breakers"};
  mutable std::map<std::pair<int, std::string>, std::unique_ptr<Breaker>>
      breakers_;
  mutable std::atomic<int> breakers_created_{0};

  mutable std::atomic<std::uint64_t> jitter_counter_{0};

  mutable ResilienceStats stats_;
};

}  // namespace epp::svc
