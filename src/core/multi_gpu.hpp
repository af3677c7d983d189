// Multi-device execution (paper Fig. 11).
//
// The paper runs on multiple GPUs "by duplicating the input graph and
// dividing the outermost loop iterations across GPUs". Each simulated device
// runs the full engine over a slice of V; the multi-device makespan is the
// slowest device (they run concurrently).
//
// Fault tolerance: because a device's unit of work is just its outer-loop
// vertex slice, a whole-device failure (FaultSite::kDeviceFail, or an inner
// run that exhausts its own recovery budget) discards that device's partial
// count and re-runs the slice — bounded by FaultConfig::max_unit_attempts —
// leaving the aggregate count exact. This is the recovery cheapness the
// paper's outer-loop partitioning buys over systems with bulk materialized
// intermediate state.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"

namespace stm {

struct MultiGpuResult {
  std::uint64_t count = 0;
  /// max over devices (concurrent execution); re-runs of a failed slice
  /// serialize on that device and extend its makespan.
  double sim_ms = 0.0;
  std::vector<MatchResult> per_device;
  /// kOk, or kInternalError when a slice exhausted its retry budget (the
  /// count is then unreliable and the caller should fall back).
  QueryStatus status = QueryStatus::kOk;
  /// Whole-device failures observed (injected or propagated from inner runs).
  std::uint64_t device_faults = 0;
  /// Failed slices that were re-run to completion.
  std::uint64_t slices_recovered = 0;
};

/// Runs `plan` over `num_devices` simulated devices, dividing the outer loop
/// into interleaved slices of V: device d runs v_begin = d, v_end = |V|,
/// v_stride = num_devices over the full graph. `cfg.fault` drives both the
/// per-device engine chaos and the kDeviceFail site handled here.
MultiGpuResult stmatch_match_multi_gpu(const Graph& g, const MatchingPlan& plan,
                                       std::size_t num_devices,
                                       const EngineConfig& cfg = {});

}  // namespace stm
