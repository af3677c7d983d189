// EmitPipeline: the EmbeddingSink handed to engines for streaming queries.
//
// Sits between an engine and the OutputSequencer and owns the two concerns
// the engines must not know about:
//
//   * Vertex-order remapping — engines emit embeddings in plan order
//     (embedding[i] = data vertex at plan position i); the pipeline remaps
//     them to the original pattern's vertex order (out[order[i]] = in[i],
//     with `order` from matching_order()) so API consumers see embeddings
//     indexed by the pattern as they wrote it.
//
//   * kEmitDrop fault injection with exact recovery — each delivery of a
//     bucket over the "transport" may be dropped (deterministic per
//     (bucket, attempt) key); the staged copy is retained and retransmitted
//     until it lands or the max_unit_attempts budget is exhausted, at which
//     point the stream fails with kInternalError. Because a drop loses
//     nothing (the copy is retained) and a success delivers exactly once,
//     the drained stream under chaos is bit-identical to the fault-free run.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/emit.hpp"
#include "core/fault.hpp"
#include "stream/sequencer.hpp"

namespace stm::stream {

class EmitPipeline : public EmbeddingSink {
 public:
  /// `plan_to_orig`: matching_order() of the original pattern — element i is
  /// the original vertex matched at plan position i. Empty = identity (no
  /// remap). `fault` configures the kEmitDrop site (rate 0 = off).
  EmitPipeline(OutputSequencer& seq, std::vector<std::size_t> plan_to_orig,
               const FaultConfig& fault = {});

  void begin(std::uint64_t num_buckets) override;
  bool post(std::uint64_t bucket, std::vector<Embedding>&& batch) override;
  TryPost try_post(std::uint64_t bucket, std::vector<Embedding>& batch) override;

  /// Head bucket of a resumed stream: posts `batch` (plan order, the rest of
  /// the cursor's outer vertex after the seek walk) as sequencer bucket 0 and
  /// shifts every engine bucket b to b + 1, so an engine run from the next
  /// outer vertex keeps its own dense bucket space. At most once, before the
  /// engine runs (and so before begin()).
  bool post_head(std::vector<Embedding>&& batch);

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
  bool forward(std::uint64_t bucket, std::vector<Embedding>&& batch);
  void remap(std::vector<Embedding>& batch) const;
  /// Number of transport drops bucket `bucket` suffers before landing, or
  /// a negative value when the attempt budget is exhausted. Deterministic;
  /// cached so a try_post retried after kWouldBlock doesn't re-roll (and
  /// re-count) the same drops.
  int resolve_drops(std::uint64_t bucket);
  void fail_stream(std::uint64_t bucket);

  OutputSequencer& seq_;
  std::vector<std::size_t> plan_to_orig_;
  std::uint64_t head_ = 0;  // 1 once post_head() took sequencer bucket 0
  FaultInjector injector_;
  std::atomic<bool> failed_{false};
  std::atomic<std::uint64_t> emitted_{0};
  mutable std::mutex mu_;
  std::string error_;
  std::unordered_map<std::uint64_t, int> drop_cache_;  // kWouldBlock retries
};

}  // namespace stm::stream
