#include "stream/emit.hpp"

#include <string>
#include <utility>

#include "util/check.hpp"

namespace stm::stream {

EmitPipeline::EmitPipeline(OutputSequencer& seq,
                           std::vector<std::size_t> plan_to_orig,
                           const FaultConfig& fault)
    : seq_(seq), plan_to_orig_(std::move(plan_to_orig)), injector_(fault) {}

void EmitPipeline::begin(std::uint64_t num_buckets) {
  seq_.begin(num_buckets + head_);
}

void EmitPipeline::remap(std::vector<Embedding>& batch) const {
  if (plan_to_orig_.empty()) return;
  const std::size_t k = plan_to_orig_.size();
  Embedding orig(k);
  for (auto& emb : batch) {
    STM_CHECK(emb.size() == k);
    for (std::size_t i = 0; i < k; ++i) orig[plan_to_orig_[i]] = emb[i];
    emb.assign(orig.begin(), orig.end());
  }
}

int EmitPipeline::resolve_drops(std::uint64_t bucket) {
  if (injector_.config().rate(FaultSite::kEmitDrop) <= 0.0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = drop_cache_.find(bucket);
  if (it != drop_cache_.end()) return it->second;
  int drops = -1;
  const std::uint32_t budget = injector_.config().max_unit_attempts;
  for (std::uint32_t attempt = 0; attempt < budget; ++attempt) {
    // Stable per-delivery key: the retransmission of bucket B after a drops
    // is the same event on every run.
    if (!injector_.should_fail(FaultSite::kEmitDrop,
                               (bucket << 8) | attempt)) {
      drops = static_cast<int>(attempt);
      break;
    }
  }
  drop_cache_.emplace(bucket, drops);
  return drops;
}

void EmitPipeline::fail_stream(std::uint64_t bucket) {
  failed_.store(true, std::memory_order_release);
  std::string msg = "emit transport dropped bucket " + std::to_string(bucket) +
                    " on all " +
                    std::to_string(injector_.config().max_unit_attempts) +
                    " delivery attempts (kEmitDrop budget exhausted)";
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_.empty()) error_ = msg;
  }
  seq_.abort(QueryStatus::kInternalError, std::move(msg));
}

bool EmitPipeline::post_head(std::vector<Embedding>&& batch) {
  head_ = 1;
  return forward(0, std::move(batch));
}

bool EmitPipeline::post(std::uint64_t bucket, std::vector<Embedding>&& batch) {
  return forward(bucket + head_, std::move(batch));
}

bool EmitPipeline::forward(std::uint64_t bucket,
                           std::vector<Embedding>&& batch) {
  if (failed()) return false;
  if (resolve_drops(bucket) < 0) {
    fail_stream(bucket);
    return false;
  }
  remap(batch);
  const std::size_t n = batch.size();
  if (!seq_.post(bucket, std::move(batch))) return false;
  emitted_.fetch_add(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    drop_cache_.erase(bucket);
  }
  return true;
}

EmbeddingSink::TryPost EmitPipeline::try_post(std::uint64_t bucket,
                                              std::vector<Embedding>& batch) {
  bucket += head_;
  if (failed()) return TryPost::kAborted;
  if (resolve_drops(bucket) < 0) {
    fail_stream(bucket);
    return TryPost::kAborted;
  }
  // Remapping twice on a kWouldBlock retry would scramble the embedding, so
  // remap only when the sequencer actually admits the batch.
  const std::size_t n = batch.size();
  std::vector<Embedding> staged = batch;  // retained copy: drop-safe transport
  remap(staged);
  const TryPost r = seq_.try_post(bucket, staged);
  if (r == TryPost::kPosted) {
    batch.clear();
    emitted_.fetch_add(n, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    drop_cache_.erase(bucket);
  }
  return r;
}

std::string EmitPipeline::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

}  // namespace stm::stream
