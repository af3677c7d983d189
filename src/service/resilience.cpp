#include "service/resilience.hpp"

#include <algorithm>

namespace stm {

double RetryPolicy::backoff_ms(std::uint32_t attempt, std::uint64_t key) const {
  if (attempt == 0) return 0.0;
  double delay = base_backoff_ms;
  for (std::uint32_t i = 1; i < attempt; ++i) delay *= backoff_multiplier;
  delay = std::min(delay, max_backoff_ms);
  // Deterministic jitter in [0, 0.5): reuses the fault injector's hash chain
  // so the whole failure-and-recovery schedule derives from seeds.
  FaultConfig cfg;
  cfg.seed = jitter_seed;
  cfg.incarnation = attempt;
  const double u = FaultInjector(cfg).decide(FaultSite::kPoolTask, key);
  return std::min(delay * (1.0 + 0.5 * u), max_backoff_ms);
}

void CircuitBreaker::tick_ms(double elapsed_ms) {
  if (state_ == State::kOpen && elapsed_ms > 0.0) since_open_ms_ += elapsed_ms;
}

bool CircuitBreaker::allow() {
  if (cfg_.failure_threshold == 0) return true;
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (since_open_ms_ >= cfg_.cooldown_ms) {
        state_ = State::kHalfOpen;
        return true;  // the probe call
      }
      return false;
    case State::kHalfOpen:
      // One probe at a time; the session holds its dispatch lock across
      // allow()/record_*, so this is only reached by a concurrent query
      // while the probe is still running.
      return false;
  }
  return true;
}

void CircuitBreaker::record_success() {
  consecutive_failures_ = 0;
  state_ = State::kClosed;
  since_open_ms_ = 0.0;
}

void CircuitBreaker::record_failure() {
  if (cfg_.failure_threshold == 0) return;
  if (state_ == State::kHalfOpen) {
    // Failed probe: straight back to open for another cooldown.
    state_ = State::kOpen;
    since_open_ms_ = 0.0;
    ++trips_;
    return;
  }
  if (++consecutive_failures_ >= cfg_.failure_threshold &&
      state_ == State::kClosed) {
    state_ = State::kOpen;
    since_open_ms_ = 0.0;
    ++trips_;
  }
}

}  // namespace stm
