#include "core/multi_gpu.hpp"

#include <algorithm>
#include <optional>

#include "util/check.hpp"

namespace stm {

MultiGpuResult stmatch_match_multi_gpu(const Graph& g, const MatchingPlan& plan,
                                       std::size_t num_devices,
                                       const EngineConfig& cfg) {
  STM_CHECK(num_devices >= 1);
  std::optional<FaultInjector> injector;
  if (cfg.fault.enabled()) {
    STM_CHECK(cfg.fault.max_unit_attempts >= 1);
    injector.emplace(cfg.fault);
  }
  MultiGpuResult result;
  for (std::size_t d = 0; d < num_devices; ++d) {
    // The paper's interleaved division of V: device d takes d, d+D, d+2D,
    // ..., balancing the degree skew of real graphs.
    EngineConfig device_cfg = cfg;
    device_cfg.v_begin = static_cast<VertexId>(d);
    device_cfg.v_end = g.num_vertices();
    device_cfg.v_stride = static_cast<VertexId>(num_devices);

    // A slice is the whole recovery unit at this level: a failed device's
    // partial count is discarded and the slice re-run from scratch, so the
    // aggregate stays exact. Re-runs serialize on the device, so its
    // simulated time accumulates across attempts.
    double device_ms = 0.0;
    std::uint32_t attempt = 0;
    for (;;) {
      MatchResult r = stmatch_match(g, plan, device_cfg);
      device_ms += r.stats.sim_ms;
      const bool engine_failed = r.query.status == QueryStatus::kInternalError;
      const bool device_failed =
          injector.has_value() &&
          injector->should_fail(FaultSite::kDeviceFail,
                                (static_cast<std::uint64_t>(d) << 16) |
                                    attempt);
      if (!engine_failed && !device_failed) {
        if (attempt > 0) ++result.slices_recovered;
        result.count += r.count;
        result.per_device.push_back(std::move(r));
        break;
      }
      ++result.device_faults;
      if (++attempt >= cfg.fault.max_unit_attempts) {
        // Budget exhausted: report the failure instead of a wrong count.
        result.status = QueryStatus::kInternalError;
        result.per_device.push_back(std::move(r));
        break;
      }
      // Retries decide faults under a fresh incarnation so a transient
      // failure schedule clears deterministically on re-execution.
      device_cfg.fault.incarnation = cfg.fault.incarnation + attempt;
    }
    result.sim_ms = std::max(result.sim_ms, device_ms);
    if (result.status != QueryStatus::kOk) break;
  }
  return result;
}

}  // namespace stm
