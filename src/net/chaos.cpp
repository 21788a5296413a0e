#include "net/chaos.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace epp::net {

ChaosPolicy::ChaosPolicy(ChaosConfig config, std::uint64_t seed) noexcept
    : config_(config), seed_(seed) {}

double ChaosPolicy::unit_draw(
    std::uint64_t stream_tag, std::atomic<std::uint64_t>& counter) const noexcept {
  const std::uint64_t draw = counter.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t state = seed_;
  state ^= (stream_tag + 1) * 0xBF58476D1CE4E5B9ULL;
  state ^= (draw + 1) * 0x94D049BB133111EBULL;
  const std::uint64_t bits = util::splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

bool ChaosPolicy::reset_on_accept() const noexcept {
  if (config_.accept_reset_p <= 0.0) return false;
  const bool reset = unit_draw(1, accept_reset_draws_) < config_.accept_reset_p;
  if (reset)
    stats_.accept_resets.add();
  return reset;
}

double ChaosPolicy::accept_delay_s() const noexcept {
  if (config_.accept_delay_s <= 0.0) return 0.0;
  const double u = unit_draw(2, accept_delay_draws_);
  stats_.accept_delays.add();
  // Exponential around the mean, capped at 10x so one unlucky draw cannot
  // park a session for minutes.
  return std::min(-config_.accept_delay_s * std::log1p(-u),
                  10.0 * config_.accept_delay_s);
}

WriteFault ChaosPolicy::next_write_fault() const noexcept {
  if (config_.reset_p <= 0.0 && config_.truncate_p <= 0.0)
    return WriteFault::kNone;
  // One draw decides both faults: [0, reset_p) resets, the next
  // truncate_p-wide band truncates, the rest writes cleanly.
  const double u = unit_draw(3, write_draws_);
  if (u < config_.reset_p) {
    stats_.write_resets.add();
    return WriteFault::kReset;
  }
  if (u < config_.reset_p + config_.truncate_p) {
    stats_.write_truncates.add();
    return WriteFault::kTruncate;
  }
  return WriteFault::kNone;
}

double ChaosPolicy::dribble_pause_s() const noexcept {
  if (config_.dribble_s <= 0.0) return 0.0;
  const double u = unit_draw(4, dribble_draws_);
  return std::min(-config_.dribble_s * std::log1p(-u), 0.050);
}

}  // namespace epp::net
