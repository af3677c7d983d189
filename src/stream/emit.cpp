#include "stream/emit.hpp"

#include <string>
#include <utility>

namespace stm::stream {

EmitPipeline::EmitPipeline(OutputSequencer& seq, std::uint64_t limit,
                           const FaultConfig& fault)
    : seq_(seq),
      limit_(limit),
      injector_(fault),
      chaos_(fault.rate(FaultSite::kEmitDrop) > 0.0) {}

void EmitPipeline::begin(std::uint64_t num_buckets) {
  seq_.begin(num_buckets + head_);
}

std::uint64_t EmitPipeline::budget() const {
  if (limit_ == 0) return kUnlimitedBudget;
  return limit_ > head_size_ ? limit_ - head_size_ : 0;
}

int EmitPipeline::resolve_drops(std::uint64_t bucket) {
  if (!chaos_) return 0;
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

void EmitPipeline::landed(std::uint64_t bucket, std::size_t ids) {
  emitted_.fetch_add(ids / seq_.width(), std::memory_order_relaxed);
  if (!chaos_) return;
  std::lock_guard<std::mutex> lock(mu_);
  drop_cache_.erase(bucket);
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

bool EmitPipeline::post_head(EmbeddingBatch&& batch) {
  head_size_ = batch.size() / seq_.width();
  const bool posted = post(0, std::move(batch));
  head_ = 1;  // every engine bucket moves up past the head
  return posted;
}

bool EmitPipeline::post(std::uint64_t bucket, EmbeddingBatch&& batch) {
  bucket += head_;
  if (failed()) return false;
  if (resolve_drops(bucket) < 0) {
    fail_stream(bucket);
    return false;
  }
  const std::size_t ids = batch.size();
  if (!seq_.post(bucket, std::move(batch))) return false;
  landed(bucket, ids);
  return true;
}

EmbeddingSink::TryPost EmitPipeline::try_post(std::uint64_t bucket,
                                              EmbeddingBatch& batch) {
  bucket += head_;
  if (failed()) return TryPost::kAborted;
  if (resolve_drops(bucket) < 0) {
    fail_stream(bucket);
    return TryPost::kAborted;
  }
  const std::size_t ids = batch.size();
  const TryPost r = seq_.try_post(bucket, batch);
  if (r == TryPost::kPosted) landed(bucket, ids);
  return r;
}

std::string EmitPipeline::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

}  // namespace stm::stream
