// Combined multi-set operation (paper Fig. 8).
//
// With loop unrolling, a warp executes the set operations of several unrolled
// iterations at once: each lane takes one element from the concatenation of
// all source sets, locates its (set_idx, set_ofs) via a prefix sum over set
// sizes, binary-searches the element in that set's target, and compacts the
// survivors with ballot/popcount. This host implementation reproduces the
// exact semantics and accounts for lane occupancy and per-wave probe depth,
// which the SIMT cost model turns into simulated cycles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "setops/set_ops.hpp"

namespace stm {

/// Width of a warp (CUDA: 32 lanes).
inline constexpr std::uint32_t kWarpWidth = 32;

/// Occupancy/cost counters for warp-executed set operations.
struct WarpOpCost {
  std::uint64_t waves = 0;            // warp-wide execution rounds
  std::uint64_t busy_lane_slots = 0;  // lanes that held a real element
  std::uint64_t probe_cycles = 0;     // Σ over waves of max per-lane steps
  std::uint64_t elements_written = 0;

  std::uint64_t total_lane_slots() const {
    return waves * static_cast<std::uint64_t>(kWarpWidth);
  }
  /// Fraction of lane slots doing useful work (paper Fig. 13 metric).
  double utilization() const {
    const auto total = total_lane_slots();
    return total == 0 ? 1.0
                      : static_cast<double>(busy_lane_slots) /
                            static_cast<double>(total);
  }
  WarpOpCost& operator+=(const WarpOpCost& o) {
    waves += o.waves;
    busy_lane_slots += o.busy_lane_slots;
    probe_cycles += o.probe_cycles;
    elements_written += o.elements_written;
    return *this;
  }
};

/// One of the M fused operations: out = source op target, label-filtered.
struct SetOpTask {
  SetView source;
  SetView target;
  SetOpKind op = SetOpKind::kIntersect;
  LabelFilter filter;
  std::vector<VertexId>* out = nullptr;  // cleared, then filled sorted
};

/// Executes all tasks as a single warp would (paper Fig. 8): the sources are
/// concatenated, processed `warp_width` elements per wave, and each lane's
/// probe depth is max-reduced per wave. Outputs come from set_op_into over
/// table `k`. Appends counters to *cost (may be null).
void combined_set_op(const simd::Kernels& k, std::span<SetOpTask> tasks,
                     WarpOpCost* cost);

/// Warp-parallel filtered copy (candidate materialization at level 1, where
/// the set is just a neighbor list): ceil(n/W) waves, one step per wave.
void filtered_copy(SetView source, LabelFilter filter,
                   std::vector<VertexId>& out, WarpOpCost* cost);

}  // namespace stm
