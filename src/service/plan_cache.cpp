#include "service/plan_cache.hpp"

#include "pattern/matching_order.hpp"
#include "util/check.hpp"

namespace stm {

namespace {

/// The cache key: the plan's compile input, then the plan options that
/// change compiled-plan semantics.
std::string cache_key(const Pattern& reordered, const PlanOptions& opts) {
  std::string key = reordered.to_string();
  key += '|';
  key += (opts.induced == Induced::kVertex) ? 'v' : 'e';
  key += opts.code_motion ? '1' : '0';
  key += (opts.count_mode == CountMode::kUniqueSubgraphs) ? 'u' : 'm';
  return key;
}

}  // namespace

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  STM_CHECK_MSG(capacity_ >= 1, "plan cache capacity must be >= 1");
}

std::shared_ptr<const MatchingPlan> PlanCache::lookup_locked(
    const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.plan;
}

std::shared_ptr<const MatchingPlan> PlanCache::get_or_compile(
    const Pattern& pattern, const PlanOptions& opts, bool* was_hit) {
  const Pattern reordered = reorder_for_matching(pattern);
  const std::string key = cache_key(reordered, opts);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto plan = lookup_locked(key)) {
      ++stats_.hits;
      if (was_hit != nullptr) *was_hit = true;
      return plan;
    }
  }

  auto plan = std::make_shared<const MatchingPlan>(reordered, opts);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  if (was_hit != nullptr) *was_hit = false;
  if (auto existing = lookup_locked(key)) return existing;  // lost race
  lru_.push_front(key);
  entries_[key] = Entry{plan, lru_.begin()};
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  return plan;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

}  // namespace stm
