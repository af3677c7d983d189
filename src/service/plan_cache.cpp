#include "service/plan_cache.hpp"

#include "pattern/canonical.hpp"
#include "pattern/matching_order.hpp"
#include "util/check.hpp"

namespace stm {

namespace {

/// Plan options that change compiled-plan semantics, folded into the key.
std::string options_suffix(const PlanOptions& opts) {
  std::string s = "|";
  s += (opts.induced == Induced::kVertex) ? 'v' : 'e';
  s += opts.code_motion ? '1' : '0';
  s += (opts.count_mode == CountMode::kUniqueSubgraphs) ? 'u' : 'm';
  // The ISA pin rides on the plan, so two plans differing only in it must
  // not share a cache entry. Appended only when non-default so every key
  // minted before the knob existed is unchanged.
  if (opts.forced_isa != simd::IsaChoice::kAuto) {
    s += "|i";
    s += to_string(opts.forced_isa);
  }
  return s;
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

void PlanCache::insert_locked(const std::string& canonical,
                              std::shared_ptr<const MatchingPlan> plan) {
  lru_.push_front(canonical);
  entries_[canonical] = Entry{std::move(plan), lru_.begin()};
  while (entries_.size() > capacity_) evict_locked();
}

void PlanCache::evict_locked() {
  STM_CHECK(!lru_.empty());
  const std::string victim = lru_.back();
  lru_.pop_back();
  entries_.erase(victim);
  for (auto it = aliases_.begin(); it != aliases_.end();) {
    it = (it->second == victim) ? aliases_.erase(it) : std::next(it);
  }
  ++stats_.evictions;
}

std::shared_ptr<const MatchingPlan> PlanCache::get_or_compile(
    const Pattern& pattern, const PlanOptions& opts, bool* was_hit) {
  const std::string suffix = options_suffix(opts);
  const std::string exact = pattern.to_string() + suffix;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto alias = aliases_.find(exact);
    if (alias != aliases_.end()) {
      if (auto plan = lookup_locked(alias->second)) {
        ++stats_.hits;
        if (was_hit != nullptr) *was_hit = true;
        return plan;
      }
      aliases_.erase(alias);  // target was evicted
    }
  }

  // Isomorphism-invariant tier: a renumbered variant of a cached pattern
  // resolves to the same canonical key. Canonicalization runs outside the
  // lock (it is the expensive part of this path).
  const std::string canonical = canonical_form(pattern) + suffix;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto plan = lookup_locked(canonical)) {
      ++stats_.hits;
      aliases_[exact] = canonical;
      if (was_hit != nullptr) *was_hit = true;
      return plan;
    }
  }

  auto plan = std::make_shared<const MatchingPlan>(
      reorder_for_matching(pattern), opts);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  if (was_hit != nullptr) *was_hit = false;
  if (auto existing = lookup_locked(canonical)) return existing;  // lost race
  insert_locked(canonical, plan);
  aliases_[exact] = canonical;
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
  aliases_.clear();
  lru_.clear();
}

}  // namespace stm
