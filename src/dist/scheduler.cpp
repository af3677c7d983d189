#include "dist/scheduler.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stm::dist {

ShardScheduler::ShardScheduler(std::uint32_t num_shards)
    : num_shards_(num_shards),
      queues_(num_shards),
      remaining_cost_(num_shards, 0.0) {
  STM_CHECK(num_shards >= 1);
}

void ShardScheduler::add(WorkUnit unit) {
  STM_CHECK(unit.home_shard < num_shards_);
  remaining_cost_[unit.home_shard] += unit.est_cost;
  queues_[unit.home_shard].push_back(std::move(unit));
}

bool ShardScheduler::pop(std::uint32_t worker, std::uint32_t num_workers,
                         WorkUnit& out, bool& stolen,
                         std::uint32_t& from_shard) {
  const std::uint32_t home = worker % num_shards_;
  std::lock_guard<std::mutex> lock(mu_);
  // With more shards than workers a worker also "homes" every shard that
  // maps to it, so no queue is left to steals only.
  for (std::uint32_t s = home; s < num_shards_; s += num_workers) {
    if (!queues_[s].empty()) {
      out = std::move(queues_[s].back());
      queues_[s].pop_back();
      remaining_cost_[s] -= out.est_cost;
      stolen = false;
      from_shard = s;
      return true;
    }
  }
  // Steal from the most loaded shard (max remaining estimated cost).
  std::uint32_t victim = num_shards_;
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    if (queues_[s].empty()) continue;
    if (victim == num_shards_ || remaining_cost_[s] > remaining_cost_[victim])
      victim = s;
  }
  if (victim == num_shards_) return false;
  out = std::move(queues_[victim].back());
  queues_[victim].pop_back();
  remaining_cost_[victim] -= out.est_cost;
  stolen = true;
  from_shard = victim;
  return true;
}

SchedulerStats ShardScheduler::run(ThreadPool& pool,
                                   std::uint32_t num_workers) {
  STM_CHECK(num_workers >= 1);
  // Sort each queue ascending by cost so back() is the costliest (LPT: big
  // units first shortens the makespan tail). Sorting once keeps add() O(1),
  // not quadratic; stable, so equal costs keep their insertion order.
  for (auto& q : queues_) {
    std::stable_sort(q.begin(), q.end(),
                     [](const WorkUnit& a, const WorkUnit& b) {
                       return a.est_cost < b.est_cost;
                     });
  }
  SchedulerStats stats;
  stats.per_shard_executed.assign(num_shards_, 0);
  stats.per_shard_stolen.assign(num_shards_, 0);
  std::mutex stats_mu;
  pool.parallel_for(num_workers, [&](std::size_t w) {
    WorkUnit unit;
    bool stolen = false;
    std::uint32_t from = 0;
    while (pop(static_cast<std::uint32_t>(w), num_workers, unit, stolen,
               from)) {
      unit.run();
      std::lock_guard<std::mutex> lock(stats_mu);
      ++stats.executed;
      ++stats.per_shard_executed[from];
      if (stolen) {
        ++stats.steals;
        ++stats.per_shard_stolen[from];
      }
    }
  });
  return stats;
}

}  // namespace stm::dist
