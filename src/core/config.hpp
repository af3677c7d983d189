// STMatch engine configuration and result statistics.
#pragma once

#include <cstdint>

#include "core/fault.hpp"
#include "core/query_stats.hpp"
#include "simt/cost_model.hpp"
#include "simt/device.hpp"

namespace stm {

/// Feature flags and tuning parameters of the STMatch engine
/// (paper §VIII-A defaults: StopLevel 2, DetectLevel 1, UNROLL 8).
struct EngineConfig {
  DeviceConfig device;
  CostModel cost;

  /// Loop-unrolling factor (candidate choices expanded per descend).
  std::uint32_t unroll = 8;
  /// Enable intra-block (shared memory) work stealing.
  bool local_steal = true;
  /// Enable cross-block (global memory) work stealing.
  bool global_steal = true;
  /// Steal split points are restricted to levels < stop_level.
  std::uint32_t stop_level = 2;
  /// A busy warp offers work to idle blocks only while at level < detect_level.
  std::uint32_t detect_level = 1;
  /// Level-0 vertices grabbed per chunk request.
  std::uint32_t chunk_size = 8;
  /// Deterministic fault-injection schedule (all sites off by default).
  /// Sites interpreted here: kWarpAbort, kSlabAlloc, kStealLoss,
  /// kEngineThrow; multi-device runs additionally honor kDeviceFail.
  FaultConfig fault;
};

/// Execution statistics of one engine run.
struct EngineStats {
  /// Simulated makespan (max warp finish time), in cycles and milliseconds.
  std::uint64_t makespan_cycles = 0;
  double sim_ms = 0.0;
  /// Sum of busy cycles over all warps.
  std::uint64_t busy_cycles = 0;
  /// busy / (makespan * warps): the occupancy the paper profiles in Fig. 12.
  double occupancy = 0.0;
  /// Aggregated warp set-operation counters; utilization() is the paper's
  /// Fig. 13 thread-utilization metric.
  WarpOpCost set_ops;
  std::uint64_t chunks_grabbed = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t global_steals = 0;
  /// Modeled global-memory footprint of the per-warp stacks (bytes).
  std::uint64_t stack_bytes = 0;
  /// Shared-memory bytes used per block.
  std::uint64_t shared_bytes_per_block = 0;
  /// Candidate-set materializations executed.
  std::uint64_t sets_built = 0;
  /// Chaos accounting: injected faults, recovery units re-adopted, and
  /// whether the run failed because a unit exhausted its retry budget.
  std::uint64_t faults_injected = 0;
  std::uint64_t units_recovered = 0;
  bool recovery_exhausted = false;

  /// The cross-engine view of these statistics (engine_ms is simulated
  /// time; scalar_ops counts busy lane slots of warp set operations).
  QueryStats to_query_stats() const {
    QueryStats q;
    q.engine_ms = sim_ms;
    q.scalar_ops = set_ops.busy_lane_slots;
    q.sets_built = sets_built;
    q.faults_injected = faults_injected;
    q.units_recovered = units_recovered;
    return q;
  }
};

/// Result of a matching run.
struct MatchResult {
  /// Match count; partial when query.status != kOk.
  std::uint64_t count = 0;
  EngineStats stats;
  /// Unified per-query statistics shared with the host engine and the
  /// service layer (status, engine_ms, scalar work).
  QueryStats query;
};

}  // namespace stm
