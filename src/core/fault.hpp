// Deterministic fault injection for chaos testing the execution paths.
//
// A FaultInjector makes seeded, stateless failure decisions at named
// injection sites threaded through the engines: the decision for a site is a
// pure hash of (seed, incarnation, site, key), where `key` is a stable
// identity of the unit of work (chunk begin vertex, warp id + step counter,
// device index + attempt, pool task sequence number). Because decisions
// depend only on identities — never on thread interleaving or wall clock —
// the same seed produces the same failure schedule, the same recovery path,
// and bit-identical final counts on every run.
//
// All sites default to rate 0 (off); production builds pay only a branch on
// `enabled()` per run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>

namespace stm {

/// Where a fault can be injected. Each site models a distinct failure domain
/// of the paper's execution model (warps, slabs, steals, devices) or of the
/// serving stack (host tasks, pool workers, whole engine calls).
enum class FaultSite : std::uint8_t {
  kWarpAbort = 0,   // a SIMT warp dies mid-stack (SM fault); frame recovered
  kSlabAlloc,       // "global memory" slab allocation fails at a descend
  kStealLoss,       // a migrating stolen stack snapshot is lost in transit
  kHostTask,        // a host worker's chunk task fails; partial work discarded
  kDeviceFail,      // a whole simulated device fails; its V-slice re-run
  kPoolTask,        // a thread-pool worker drops a task (requeued, bounded)
  kEngineThrow,     // the engine entry point throws (exercises the service
                    // exception boundary and the fallback chain)
  kUpdateApply,     // a dynamic-graph update batch fails before publishing
                    // its snapshot (exercises apply atomicity)
  kShardFailure,    // a sharded-execution unit (shard-local run or cut-edge
                    // anchor chunk) fails; re-run with bumped incarnation
  kEmitDrop,        // a posted embedding batch is dropped in the emission
                    // transport; the retained staged copy is retransmitted
  kWalAppend,       // a write-ahead-log append is torn (short/garbled bytes
                    // hit the file); the writer truncates back to the record
                    // start and retries, failing closed on exhaustion
  kCheckpointWrite, // a checkpoint temp file is written torn/garbled; the
                    // writer discards it and retries, failing closed on
                    // exhaustion (the WAL keeps full durability meanwhile)
  kPageRead,        // a spill-tier page read returns short or garbled bytes;
                    // the length/CRC check rejects the frame and the pager
                    // retries with a bumped attempt key, failing closed on
                    // exhaustion (no corrupt page is ever served)
};
inline constexpr std::size_t kNumFaultSites = 13;

const char* to_string(FaultSite site);

/// Thrown by the kEngineThrow site: a non-check_error exception escaping an
/// engine call, which the service must contain at its execution boundary.
class FaultInjectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-run fault schedule: a seed plus one firing rate per site. Value type;
/// carried by EngineConfig, HostEngineConfig, StreamOptions and
/// SessionConfig so chaos tests configure faults through the normal path.
struct FaultConfig {
  /// Schedule seed. Same seed (and rates) => identical failure schedule.
  std::uint64_t seed = 0;
  /// Retry attempt of the surrounding engine call; the service bumps this on
  /// each retry so a transient fault can clear deterministically.
  std::uint64_t incarnation = 0;
  /// Probability in [0, 1] that a decision at each site fires.
  std::array<double, kNumFaultSites> rates{};
  /// Execution attempts allowed per recovery unit (failed chunk, captured
  /// warp frame, device slice) before the run gives up with kInternalError;
  /// below 1 is a check_error wherever a budget is first used.
  std::uint32_t max_unit_attempts = 8;

  double rate(FaultSite site) const {
    return rates[static_cast<std::size_t>(site)];
  }
  FaultConfig& set_rate(FaultSite site, double r) {
    rates[static_cast<std::size_t>(site)] = r;
    return *this;
  }
  bool enabled() const {
    for (double r : rates)
      if (r > 0.0) return true;
    return false;
  }
};

/// Seeded, thread-safe fault oracle. `should_fail` is a pure function of the
/// configuration and the caller-supplied key; the per-site counters exist
/// only for statistics and never influence decisions.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg);

  /// Decides whether the work unit identified by `key` fails at `site`.
  /// Deterministic and independent of call order across threads.
  bool should_fail(FaultSite site, std::uint64_t key) {
    const double r = cfg_.rate(site);
    if (r <= 0.0) return false;
    if (decide(site, key) >= r) return false;
    injected_[static_cast<std::size_t>(site)].fetch_add(
        1, std::memory_order_relaxed);
    return true;
  }

  /// The decision value in [0, 1) compared against the site rate; exposed so
  /// tests can search for seeds with a particular schedule.
  double decide(FaultSite site, std::uint64_t key) const;

  std::uint64_t injected(FaultSite site) const {
    return injected_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t total_injected() const {
    std::uint64_t total = 0;
    for (const auto& c : injected_) total += c.load(std::memory_order_relaxed);
    return total;
  }

  const FaultConfig& config() const { return cfg_; }

 private:
  FaultConfig cfg_;
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> injected_{};
};

}  // namespace stm
