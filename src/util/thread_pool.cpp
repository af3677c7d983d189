#include "util/thread_pool.hpp"

#include <atomic>

#include "util/check.hpp"

namespace stm {

ThreadPool::ThreadPool(std::size_t num_threads) {
  STM_CHECK(num_threads > 0);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    STM_CHECK_MSG(!stopping_, "submit on a stopping pool");
    queue_.push_back({std::move(task), next_seq_++, 0});
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::set_fault_injection(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Dynamic chunking: enough chunks for balance, few enough for low overhead.
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  for (std::size_t c = 0; c < chunks; ++c) {
    submit([n, next, &fn] {
      for (;;) {
        std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (injector_ != nullptr &&
          task.requeues < injector_->config().max_unit_attempts &&
          injector_->should_fail(FaultSite::kPoolTask,
                                 (task.seq << 8) | task.requeues)) {
        // The worker "crashed" before touching the task: hand it back to the
        // queue for another worker. in_flight_ is untouched, so wait_idle()
        // still accounts for it.
        ++task.requeues;
        queue_.push_back(std::move(task));
        cv_task_.notify_one();
        continue;
      }
    }
    task.fn();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace stm
