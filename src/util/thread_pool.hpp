// Fixed-size thread pool used by the host-parallel execution paths
// (STMatch host engine, Dryadic-style baseline) and the service dispatcher.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/fault.hpp"

namespace stm {

/// A fixed pool of worker threads consuming a FIFO task queue.
///
/// Tasks must not throw; exceptions escaping a task terminate the program
/// (matching the Core Guidelines advice to handle errors where they occur —
/// the engines catch their own errors and return status instead).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Enables chaos at FaultSite::kPoolTask: a popped task for which the
  /// injector fires is pushed back to the tail instead of running (modeling
  /// a worker crash before the task did any work). Requeues are bounded per
  /// task by the schedule's max_unit_attempts; past the bound the task runs
  /// anyway, so no task is ever lost and wait_idle() always terminates. The
  /// injector must outlive the pool (or be cleared with nullptr first).
  /// Decisions are keyed by (submit sequence number, requeue count), so they
  /// are deterministic per pool regardless of worker interleaving.
  void set_fault_injection(FaultInjector* injector);

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t seq = 0;
    std::uint32_t requeues = 0;
  };

  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::deque<Task> queue_;
  std::size_t in_flight_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  FaultInjector* injector_ = nullptr;  // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace stm
