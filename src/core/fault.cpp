#include "core/fault.hpp"

#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kWarpAbort: return "warp_abort";
    case FaultSite::kSlabAlloc: return "slab_alloc";
    case FaultSite::kStealLoss: return "steal_loss";
    case FaultSite::kHostTask: return "host_task";
    case FaultSite::kDeviceFail: return "device_fail";
    case FaultSite::kPoolTask: return "pool_task";
    case FaultSite::kEngineThrow: return "engine_throw";
    case FaultSite::kUpdateApply: return "update_apply";
    case FaultSite::kShardFailure: return "shard_failure";
    case FaultSite::kEmitDrop: return "emit_drop";
    case FaultSite::kWalAppend: return "wal_append";
    case FaultSite::kCheckpointWrite: return "checkpoint_write";
    case FaultSite::kPageRead: return "page_read";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultConfig& cfg) : cfg_(cfg) {
  STM_CHECK_MSG(cfg_.max_unit_attempts >= 1,
                "fault schedule: max_unit_attempts must be >= 1");
}

double FaultInjector::decide(FaultSite site, std::uint64_t key) const {
  // Three rounds of splitmix64 over (seed, incarnation, site, key): each
  // input perturbs the chain state, so nearby keys and sites decorrelate.
  std::uint64_t state =
      cfg_.seed ^ (cfg_.incarnation * 0x9e3779b97f4a7c15ULL);
  splitmix64(state);
  state ^= (static_cast<std::uint64_t>(site) + 1) * 0xbf58476d1ce4e5b9ULL;
  splitmix64(state);
  state ^= key;
  const std::uint64_t h = splitmix64(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace stm
