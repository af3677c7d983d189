#include "setops/multi_set_op.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/prefix_sum.hpp"

namespace stm {

void combined_set_op(const simd::Kernels& k, std::span<SetOpTask> tasks,
                     WarpOpCost* cost) {
  std::vector<std::uint64_t> sizes(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    STM_CHECK(tasks[t].out != nullptr);
    sizes[t] = tasks[t].source.size();
  }
  const auto scan = exclusive_prefix_sum(sizes);  // paper: size_scan
  const std::uint64_t total = scan.back();

  // Outputs go through set_op_into: each task's result is its source op
  // target, label-filtered, in sorted order, whichever kernel runs. The warp
  // cost counters depend only on source and target sizes, not on the data,
  // so they are computed arithmetically below and do not depend on the
  // kernel either.
  WarpOpCost local;
  for (SetOpTask& task : tasks) {
    set_op_into(k, task.op, task.source, task.target, *task.out, task.filter);
    local.elements_written += task.out->size();
  }

  // Cost emulation (paper Fig. 8): lanes take elements from the flat
  // concatenation of sources, kWarpWidth per wave; each wave's probe depth
  // is the max bsearch_steps(target size) over the tasks whose source range
  // overlaps the wave. Empty sources own no lanes and never contribute.
  std::size_t set_idx = 0;  // advances monotonically over the flat range
  for (std::uint64_t wave_start = 0; wave_start < total;
       wave_start += kWarpWidth) {
    const std::uint64_t wave_end =
        std::min<std::uint64_t>(wave_start + kWarpWidth, total);
    while (scan[set_idx + 1] <= wave_start) ++set_idx;
    std::uint32_t max_steps = 0;
    for (std::size_t t = set_idx; t < tasks.size() && scan[t] < wave_end;
         ++t) {
      if (scan[t] == scan[t + 1]) continue;  // empty source: no lanes
      max_steps = std::max(max_steps, bsearch_steps(tasks[t].target.size()));
    }
    ++local.waves;
    local.busy_lane_slots += wave_end - wave_start;
    local.probe_cycles += max_steps;
  }
  if (cost != nullptr) *cost += local;
}

void filtered_copy(SetView source, LabelFilter filter,
                   std::vector<VertexId>& out, WarpOpCost* cost) {
  out.clear();
  for (VertexId v : source)
    if (filter.keep(v)) out.push_back(v);
  if (cost != nullptr) {
    WarpOpCost local;
    local.waves = (source.size() + kWarpWidth - 1) / kWarpWidth;
    local.busy_lane_slots = source.size();
    local.probe_cycles = local.waves;  // one step per wave for a copy
    local.elements_written = out.size();
    *cost += local;
  }
}

}  // namespace stm
