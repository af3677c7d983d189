// OutputSequencer: re-merges per-worker bucket posts into one deterministic
// global embedding stream with bounded-memory backpressure.
//
// Producers (engine workers) post complete buckets in any order and from any
// thread; the consumer drains embeddings strictly in bucket order, and
// within a bucket in the order the engine staged them (extension-tree DFS).
// The result: a drained stream that is bit-identical across thread counts,
// steal interleavings, and engine choice, because bucket ids and intra-bucket
// order are both derived from the plan, never from scheduling.
//
// Backpressure contract: at most `max_buffered` embeddings are held across
// the pending buckets and the released-but-undrained batch. A post that
// would exceed the bound blocks until the consumer catches up — except for
// the *head* bucket (the next one to be released), which is always admitted.
// The exemption makes the protocol deadlock-free: the producer holding the
// head bucket can always complete its post, the consumer can then drain it,
// and the head advances (see DESIGN.md §12 for the argument covering retry
// queues).
//
// Termination: the producer side calls finish(status) exactly once after the
// engine returns; the consumer then drains the remaining contiguous prefix
// and observes end-of-stream. The consumer side may call abort() at any time
// (limit reached, cancellation, handle destruction): producers unblock and
// see `false` from post, and the stream ends at a well-defined prefix of
// fully released buckets.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/emit.hpp"
#include "core/query_stats.hpp"

namespace stm::stream {

struct SequencerConfig {
  /// Backpressure bound: embeddings buffered (pending buckets plus the
  /// released batch being drained) before non-head posts block.
  std::size_t max_buffered = 4096;
};

class OutputSequencer {
 public:
  explicit OutputSequencer(SequencerConfig cfg = {},
                           const CancelToken* token = nullptr)
      : cfg_(cfg), token_(token) {}

  /// Announces the dense bucket space; until then it is unbounded, so a
  /// resumed stream's head bucket (EmitPipeline::post_head) may come first.
  void begin(std::uint64_t num_buckets);

  /// Blocking post of one complete bucket (head-exempt backpressure).
  /// Returns false once the stream is aborted, failed, or its token fired —
  /// the producer should stop emitting. Each bucket id may be posted once.
  bool post(std::uint64_t bucket, std::vector<Embedding>&& batch);

  /// Non-blocking variant; on kWouldBlock the batch is untouched.
  EmbeddingSink::TryPost try_post(std::uint64_t bucket,
                                  std::vector<Embedding>& batch);

  /// Producer side is done (engine returned). `status` is the engine's final
  /// status; the consumer drains the remaining contiguous prefix, then sees
  /// end-of-stream. First terminal transition (finish or abort) wins.
  void finish(QueryStatus status, std::string error);

  /// Consumer-side termination: unblocks everyone, discards undrained
  /// buckets. Producers observe `false` from subsequent posts.
  void abort(QueryStatus status, std::string error);

  /// Next embedding in global order. Blocks until one is available or the
  /// stream ends (yielding a few times before it parks, since buckets
  /// arrive every few microseconds on sparse stretches); returns false at
  /// end-of-stream.
  bool next(Embedding* out);

  /// Terminal status/error recorded by finish/abort (kOk until then).
  QueryStatus final_status() const;
  std::string final_error() const;

  /// Total wall-clock time producers spent blocked on backpressure.
  double stall_ms() const;

 private:
  bool can_admit_locked(std::uint64_t bucket, std::size_t n) const {
    return bucket == next_release_ || buffered_ + n <= cfg_.max_buffered;
  }
  void admit_locked(std::uint64_t bucket, std::vector<Embedding>&& batch);
  void end_locked(QueryStatus status, std::string&& error);

  SequencerConfig cfg_;
  const CancelToken* token_;

  mutable std::mutex mu_;
  std::condition_variable cv_producers_;
  std::condition_variable cv_consumer_;
  std::map<std::uint64_t, std::vector<Embedding>> pending_;
  std::deque<Embedding> current_;  // released head bucket(s) being drained
  std::uint64_t num_buckets_ = ~std::uint64_t{0};
  std::uint64_t next_release_ = 0;
  std::size_t buffered_ = 0;
  bool ended_ = false;    // finish or abort happened
  bool aborted_ = false;  // consumer-side termination: discard, unblock
  QueryStatus status_ = QueryStatus::kOk;
  std::string error_;
  double stall_ms_ = 0.0;
};

}  // namespace stm::stream
