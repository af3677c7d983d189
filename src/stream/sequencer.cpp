#include "stream/sequencer.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace stm::stream {

void OutputSequencer::begin(std::uint64_t num_buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  num_buckets_ = num_buckets;
  cv_consumer_.notify_all();
}

void OutputSequencer::admit_locked(std::uint64_t bucket,
                                   std::vector<Embedding>&& batch) {
  buffered_ += batch.size();
  if (bucket == next_release_) {
    for (auto& e : batch) current_.push_back(std::move(e));
    ++next_release_;
    // Drain any contiguous run that earlier out-of-order posts left pending.
    for (auto it = pending_.find(next_release_); it != pending_.end();
         it = pending_.find(next_release_)) {
      for (auto& e : it->second) current_.push_back(std::move(e));
      pending_.erase(it);
      ++next_release_;
    }
    cv_consumer_.notify_all();
    cv_producers_.notify_all();  // head advanced: new head may be waiting
  } else {
    STM_CHECK_MSG(bucket > next_release_ && !pending_.count(bucket),
                  "bucket posted twice or below the release head");
    pending_.emplace(bucket, std::move(batch));
  }
}

bool OutputSequencer::post(std::uint64_t bucket,
                           std::vector<Embedding>&& batch) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!ended_ && !can_admit_locked(bucket, batch.size())) {
    Timer stall;
    while (!ended_ && !can_admit_locked(bucket, batch.size())) {
      if (token_ != nullptr && token_->expired()) {
        stall_ms_ += stall.elapsed_ms();
        return false;
      }
      cv_producers_.wait_for(lock, std::chrono::milliseconds(5));
    }
    stall_ms_ += stall.elapsed_ms();
  }
  if (ended_) return false;
  admit_locked(bucket, std::move(batch));
  return true;
}

EmbeddingSink::TryPost OutputSequencer::try_post(std::uint64_t bucket,
                                                 std::vector<Embedding>& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ended_) return EmbeddingSink::TryPost::kAborted;
  if (!can_admit_locked(bucket, batch.size()))
    return EmbeddingSink::TryPost::kWouldBlock;
  admit_locked(bucket, std::move(batch));
  return EmbeddingSink::TryPost::kPosted;
}

void OutputSequencer::end_locked(QueryStatus status, std::string&& error) {
  if (!ended_) {
    ended_ = true;
    status_ = status;
    error_ = std::move(error);
  }
  cv_producers_.notify_all();
  cv_consumer_.notify_all();
}

void OutputSequencer::finish(QueryStatus status, std::string error) {
  std::lock_guard<std::mutex> lock(mu_);
  end_locked(status, std::move(error));
}

void OutputSequencer::abort(QueryStatus status, std::string error) {
  std::lock_guard<std::mutex> lock(mu_);
  end_locked(status, std::move(error));
  aborted_ = true;
  buffered_ = 0;
  current_.clear();
  pending_.clear();
}

namespace {
/// Yields the consumer takes before it parks on an empty head. Engines post
/// one bucket per outer vertex, every few microseconds on a sparse stretch
/// of the graph; parking on each would cost a sleep and a wake-up per
/// bucket, more than the bucket's own hand-off.
constexpr int kYieldsBeforePark = 64;
}  // namespace

bool OutputSequencer::next(Embedding* out) {
  std::unique_lock<std::mutex> lock(mu_);
  for (int yields = 0;;) {
    if (aborted_) return false;
    if (!current_.empty()) {
      *out = std::move(current_.front());
      current_.pop_front();
      if (buffered_ > 0) --buffered_;
      cv_producers_.notify_all();
      return true;
    }
    // End-of-stream: every bucket released, or the producer side finished
    // and the next bucket never arrived (valid shorter prefix).
    if (next_release_ >= num_buckets_ || ended_) return false;
    if (yields++ < kYieldsBeforePark) {
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
      continue;
    }
    cv_consumer_.wait(lock);
  }
}

QueryStatus OutputSequencer::final_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ended_ ? status_ : QueryStatus::kOk;
}

std::string OutputSequencer::final_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

double OutputSequencer::stall_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_ms_;
}

}  // namespace stm::stream
