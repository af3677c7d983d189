// Admission control for the query service layer.
//
// Bounds the number of concurrently executing queries (the thread pool's
// size) and the number queued behind them (`max_queue`); submissions beyond
// both are rejected immediately so an overloaded server sheds load instead
// of building an unbounded backlog. Queued work drains FIFO within each
// priority class, higher classes first.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "util/thread_pool.hpp"

namespace stm {

enum class QueryPriority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr std::size_t kNumPriorities = 3;

class AdmissionController {
 public:
  /// `num_workers` queries run concurrently; up to `max_queue` more wait.
  AdmissionController(std::size_t num_workers, std::size_t max_queue);

  /// Tries to enqueue `job`. Returns false (job not consumed, never run)
  /// when the system is full — more than num_workers + max_queue jobs
  /// admitted and unfinished — and the caller reports kOverloaded. The
  /// bound counts running plus queued jobs, so rejection behaviour does not
  /// depend on how quickly workers pick queued jobs up.
  bool admit(QueryPriority priority, std::function<void()> job);

  /// Blocks until every admitted job has finished.
  void drain();

  std::size_t num_workers() const { return pool_.size(); }
  std::size_t max_queue() const { return max_queue_; }
  /// Jobs admitted but not yet started.
  std::size_t queue_depth() const;
  /// Jobs currently executing.
  std::size_t inflight() const;

  /// Forwards to ThreadPool::set_fault_injection (chaos at kPoolTask:
  /// bounded dispatcher-task requeue; no admitted job is ever lost).
  void set_fault_injection(FaultInjector* injector) {
    pool_.set_fault_injection(injector);
  }

 private:
  /// Runs the highest-priority pending job; one pump task is submitted to
  /// the pool per admitted job, so the pool's worker count bounds
  /// concurrency and the pump may execute a higher-priority job than the
  /// one whose admission scheduled it.
  void pump();

  ThreadPool pool_;
  const std::size_t max_queue_;
  mutable std::mutex mu_;
  std::array<std::deque<std::function<void()>>, kNumPriorities> queues_;
  std::size_t pending_ = 0;
  std::size_t running_ = 0;
};

}  // namespace stm
