// EmitPipeline: the EmbeddingSink handed to engines for streaming queries.
//
// Sits between an engine and the OutputSequencer and owns the two concerns
// the engines must not know about:
//
//   * The page budget — a page of `limit` embeddings whose head bucket
//     (post_head) already holds h of them needs limit - h more from the
//     engine, which its producers may stop at (EmbeddingSink::budget).
//
//   * kEmitDrop fault injection with exact recovery — each delivery of a
//     bucket over the "transport" may be dropped (deterministic per
//     (bucket, attempt) key); the batch is retained and retransmitted until
//     it lands or the max_unit_attempts budget is exhausted, at which point
//     the stream fails with kInternalError. A batch the sequencer has not
//     admitted is still the caller's, so it is itself the retained copy.
//     Because a drop loses nothing and a success delivers exactly once, the
//     drained stream under chaos is bit-identical to the fault-free run.
//
// Batches pass through in plan order; the stream's consumer remaps each
// embedding to the caller's pattern-vertex order as it delivers it.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/emit.hpp"
#include "core/fault.hpp"
#include "stream/sequencer.hpp"

namespace stm::stream {

class EmitPipeline : public EmbeddingSink {
 public:
  /// `limit`: the page size (0 = unlimited). `fault` configures the
  /// kEmitDrop site (rate 0 = off).
  EmitPipeline(OutputSequencer& seq, std::uint64_t limit,
               const FaultConfig& fault = {});

  void begin(std::uint64_t num_buckets) override;
  std::uint64_t budget() const override;
  bool post(std::uint64_t bucket, EmbeddingBatch&& batch) override;
  TryPost try_post(std::uint64_t bucket, EmbeddingBatch& batch) override;

  /// Head bucket of a resumed stream: posts `batch` (plan order, the rest of
  /// the cursor's outer vertex after the seek walk) as sequencer bucket 0 and
  /// shifts every engine bucket b to b + 1, so an engine run from the next
  /// outer vertex keeps its own dense bucket space. At most once, before the
  /// engine runs (and so before begin()).
  bool post_head(EmbeddingBatch&& batch);

  /// True once the kEmitDrop retry budget was exhausted for some bucket; the
  /// sequencer has then been aborted with kInternalError.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  std::string error() const;

  /// Embeddings forwarded to the sequencer (feeds stream_emitted_total).
  std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  /// kEmitDrop faults fired so far.
  std::uint64_t faults_injected() const {
    return injector_.injected(FaultSite::kEmitDrop);
  }

 private:
  /// Number of transport drops bucket `bucket` suffers before landing, or
  /// a negative value when the attempt budget is exhausted. Deterministic;
  /// cached so a try_post retried after kWouldBlock doesn't re-roll (and
  /// re-count) the same drops.
  int resolve_drops(std::uint64_t bucket);
  /// Counts a landed bucket and forgets its cached drop verdict.
  void landed(std::uint64_t bucket, std::size_t ids);
  void fail_stream(std::uint64_t bucket);

  OutputSequencer& seq_;
  std::uint64_t limit_;
  std::uint64_t head_ = 0;       // 1 once post_head() took sequencer bucket 0
  std::uint64_t head_size_ = 0;  // embeddings in that head bucket
  FaultInjector injector_;
  const bool chaos_;  // kEmitDrop armed
  std::atomic<bool> failed_{false};
  std::atomic<std::uint64_t> emitted_{0};
  mutable std::mutex mu_;
  std::string error_;
  std::unordered_map<std::uint64_t, int> drop_cache_;  // kWouldBlock retries
};

}  // namespace stm::stream
