// Shard-level work scheduling: the third stealing level.
//
// The paper's engine balances load at two levels — intra-block (shared
// memory) and inter-block (global memory) warp stealing, both inside one
// device. The sharded subsystem adds a third level above them: each shard
// has a queue of coarse work units (its shard-local enumeration and the
// cut-edge anchor chunks it owns), and an idle shard worker steals whole
// units from the queue of the most loaded shard, where "loaded" is the
// remaining estimated cost derived from the SIMT cost model
// (simt/cost_model.hpp). Units run the inner engines, whose own two
// stealing levels remain active underneath.
//
// Scheduling only changes *which worker* runs a unit, never what the unit
// computes: counts are accumulated with commutative additions and fault
// decisions are keyed by unit identity, so results are bit-identical for
// every worker count and steal interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "util/thread_pool.hpp"

namespace stm::dist {

/// One coarse schedulable unit of sharded work. `run` must not throw (the
/// pool terminates on escaping exceptions); units report failure through
/// the state they capture.
struct WorkUnit {
  /// Queue the unit starts on (the shard that owns the work).
  std::uint32_t home_shard = 0;
  /// Estimated cost in simulated cycles; used to pick steal victims and to
  /// run expensive units first (LPT order within a queue).
  double est_cost = 0.0;
  std::function<void()> run;
};

struct SchedulerStats {
  /// Units executed in total.
  std::uint64_t executed = 0;
  /// Units run by a worker homed on a different shard (third-level steals).
  std::uint64_t steals = 0;
  /// Units executed per home shard (indexed by shard id).
  std::vector<std::uint64_t> per_shard_executed;
  /// Units stolen away from each shard's queue.
  std::vector<std::uint64_t> per_shard_stolen;
};

/// Per-shard work queues drained by `num_workers` logical workers on a
/// thread pool. Worker w is homed on shard (w mod num_shards); it drains its
/// home queue costliest-unit-first and, when empty, steals the costliest
/// unit from the shard with the largest remaining estimated cost.
class ShardScheduler {
 public:
  explicit ShardScheduler(std::uint32_t num_shards);

  /// Enqueues a unit on its home shard's queue. Not thread-safe; add all
  /// units before run().
  void add(WorkUnit unit);

  /// Executes every unit via pool.parallel_for over the workers and returns
  /// the steal statistics. The scheduler is left empty.
  SchedulerStats run(ThreadPool& pool, std::uint32_t num_workers);

 private:
  /// Pops the next unit for worker `w`; sets `stolen` when it came from a
  /// foreign queue. Returns false when all queues are empty.
  bool pop(std::uint32_t worker, std::uint32_t num_workers, WorkUnit& out,
           bool& stolen, std::uint32_t& from_shard);

  std::uint32_t num_shards_;
  std::mutex mu_;
  /// Sorted ascending by est_cost when run() starts; pop_back takes the
  /// costliest.
  std::vector<std::vector<WorkUnit>> queues_;
  std::vector<double> remaining_cost_;
};

}  // namespace stm::dist
