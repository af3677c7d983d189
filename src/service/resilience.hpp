// Service-level resilience primitives: bounded retries with deterministic
// exponential backoff, and a per-engine circuit breaker.
//
// Both are policy objects the GraphSession dispatcher consults around each
// engine call; neither owns threads. Only kInternalError outcomes count as
// "failures" here — kInvalidArgument is the caller's bug and retrying or
// falling back would just mask it, and kDeadlineExceeded/kCancelled mean the
// token is burned, so re-running cannot help.
#pragma once

#include <cstdint>

#include "core/fault.hpp"

namespace stm {

/// Bounded-retry policy with exponential backoff and deterministic jitter.
///
/// backoff_ms(attempt, key) is a pure function of (attempt, key,
/// jitter_seed): replaying a query with the same seed reproduces the same
/// sleep schedule, which keeps chaos tests exact.
struct RetryPolicy {
  /// Total tries per engine, including the first (1 = no retry).
  std::uint32_t max_attempts = 2;
  double base_backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 100.0;
  /// Seed for the deterministic jitter term (up to +50% of the base delay).
  std::uint64_t jitter_seed = 0;

  /// Delay before retry number `attempt` (attempt >= 1); `key` identifies
  /// the query so concurrent retries don't thundering-herd in lockstep.
  double backoff_ms(std::uint32_t attempt, std::uint64_t key) const;
};

/// Per-engine circuit breaker (closed → open → half-open).
///
/// `failure_threshold` consecutive failures open the circuit: allow()
/// answers false (the dispatcher skips this engine and moves down the
/// fallback chain) until `cooldown_ms` of virtual time has been reported
/// via tick_ms(). Then one probe is let through (half-open); its success
/// closes the circuit, its failure re-opens it for another cooldown.
///
/// Time is injected by the caller through tick_ms() rather than read from a
/// wall clock, so breaker behaviour in tests is deterministic. Not
/// thread-safe: the session guards each breaker with its dispatch lock.
class CircuitBreaker {
 public:
  struct Config {
    /// Consecutive failures that open the circuit; 0 disables the breaker
    /// (allow() is always true).
    std::uint32_t failure_threshold = 5;
    double cooldown_ms = 100.0;
  };

  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  explicit CircuitBreaker(const Config& cfg) : cfg_(cfg) {}

  /// Advances the breaker's virtual clock (the session reports elapsed
  /// wall time between dispatches).
  void tick_ms(double elapsed_ms);

  /// May a call be issued now? Transitions open → half-open when the
  /// cooldown has elapsed.
  bool allow();

  void record_success();
  void record_failure();

  State state() const { return state_; }
  /// Times the circuit transitioned closed/half-open → open.
  std::uint64_t trips() const { return trips_; }

 private:
  Config cfg_;
  State state_ = State::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  double since_open_ms_ = 0.0;
  std::uint64_t trips_ = 0;
};

}  // namespace stm
