// OutputSequencer: re-merges per-worker bucket posts into one deterministic
// global embedding stream with bounded-memory backpressure.
//
// Producers (engine workers) post complete buckets in any order and from any
// thread; the consumer takes released buckets strictly in bucket order, one
// whole flat batch per lock, and reads each in the order the engine staged
// it (extension-tree DFS). The result: a drained stream that is
// bit-identical across thread counts, steal interleavings, and engine
// choice, because bucket ids and intra-bucket order are both derived from
// the plan, never from scheduling.
//
// Backpressure contract: at most `max_buffered` embeddings are held across
// the pending buckets and the released batches the consumer has not taken
// yet, plus one bucket past the bound. A post that would exceed the bound
// waits. The *head* bucket (the next one to be released) is admitted
// regardless of size once the consumer has taken everything released before
// it; until then it waits for the consumer. That wait depends on the
// consumer alone, so it cannot deadlock: the consumer takes what is
// released, the head lands, the next head follows (DESIGN.md §12 has the
// argument covering the host workers' retry queues). Every other bucket
// that does not fit makes try_post return kWouldBlock.
//
// Termination: the producer side calls finish(status) exactly once after the
// engine returns; the consumer then drains the remaining contiguous prefix
// and observes end-of-stream. The consumer side may call abort() at any time
// (limit reached, cancellation, handle destruction): producers unblock and
// see `false` from post, and the stream ends at a well-defined prefix of
// fully released buckets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "core/cancel.hpp"
#include "core/emit.hpp"
#include "core/query_stats.hpp"

namespace stm::stream {

struct SequencerConfig {
  /// Backpressure bound: embeddings buffered (pending buckets plus released
  /// batches not yet taken) before posts wait.
  std::size_t max_buffered = 4096;
  /// Vertices per embedding (the plan size): a batch of n vertex ids holds
  /// n / width embeddings.
  std::size_t width = 1;
};

class OutputSequencer {
 public:
  explicit OutputSequencer(SequencerConfig cfg = {},
                           const CancelToken* token = nullptr)
      : cfg_(cfg), token_(token) {}

  std::size_t width() const { return cfg_.width; }

  /// Announces the dense bucket space; until then it is unbounded, so a
  /// resumed stream's head bucket (EmitPipeline::post_head) may come first.
  void begin(std::uint64_t num_buckets);

  /// Blocking post of one complete bucket. Returns false once the stream is
  /// aborted, failed, or its token fired — the producer should stop
  /// emitting. Each bucket id may be posted once.
  bool post(std::uint64_t bucket, EmbeddingBatch&& batch);

  /// Like post for the head bucket; any other bucket that does not fit
  /// returns kWouldBlock with the batch untouched.
  EmbeddingSink::TryPost try_post(std::uint64_t bucket, EmbeddingBatch& batch);

  /// Producer side is done (engine returned). `status` is the engine's final
  /// status; the consumer drains the remaining contiguous prefix, then sees
  /// end-of-stream. First terminal transition (finish or abort) wins.
  void finish(QueryStatus status, std::string error);

  /// Consumer-side termination: unblocks everyone, discards undrained
  /// buckets. Producers observe `false` from subsequent posts.
  void abort(QueryStatus status, std::string error);

  /// True once abort() ran. Lock-free, so a consumer reading a batch it
  /// already took can stop where an abort finds it.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Takes the next released, non-empty bucket in global order. Blocks until
  /// one is available or the stream ends (yielding a few times before it
  /// parks, since buckets arrive every few microseconds on sparse
  /// stretches); returns false at end-of-stream.
  bool next(EmbeddingBatch* out);

  /// Terminal status/error recorded by finish/abort (kOk until then).
  QueryStatus final_status() const;
  std::string final_error() const;

  /// Total wall-clock time producers spent blocked on backpressure.
  double stall_ms() const;

 private:
  bool can_admit_locked(std::uint64_t bucket, std::size_t n) const {
    return (bucket == next_release_ && current_.empty()) ||
           buffered_ + n <= cfg_.max_buffered;
  }
  /// Waits until `bucket` may be admitted; false when the stream ended or
  /// the token fired first.
  bool wait_admissible(std::unique_lock<std::mutex>& lock,
                       std::uint64_t bucket, std::size_t n);
  void admit_locked(std::uint64_t bucket, EmbeddingBatch&& batch);
  void end_locked(QueryStatus status, std::string&& error);

  SequencerConfig cfg_;
  const CancelToken* token_;

  mutable std::mutex mu_;
  std::condition_variable cv_producers_;
  std::condition_variable cv_consumer_;
  std::map<std::uint64_t, EmbeddingBatch> pending_;
  std::deque<EmbeddingBatch> current_;  // released batches not yet taken
  std::uint64_t num_buckets_ = ~std::uint64_t{0};
  std::uint64_t next_release_ = 0;
  std::size_t buffered_ = 0;
  bool ended_ = false;                // finish or abort happened
  std::atomic<bool> aborted_{false};  // consumer-side termination
  QueryStatus status_ = QueryStatus::kOk;
  std::string error_;
  double stall_ms_ = 0.0;
};

}  // namespace stm::stream
