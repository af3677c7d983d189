// Plan cache for the query service layer.
//
// Compiling a MatchingPlan runs matching-order selection, automorphism /
// symmetry-breaking analysis and code-motion placement — work worth skipping
// for repeated queries. The cache is keyed two-tiered:
//   1. an exact key (pattern.to_string() + plan options) for the common case
//      of a textually identical repeated query — a string lookup, no
//      isomorphism work;
//   2. a canonical key (canonical_form() + options) behind it, so queries
//      that are mere renumberings of a cached pattern share its entry (plans
//      of isomorphic patterns produce identical counts).
// Entries are LRU-evicted at `capacity`; exact-key aliases of an evicted
// entry are dropped with it.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "pattern/plan.hpp"

namespace stm {

struct PlanCacheStats {
  std::uint64_t hits = 0;        // exact- or canonical-key hit
  std::uint64_t misses = 0;      // compiled a new plan
  std::uint64_t evictions = 0;   // LRU evictions
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 64);

  /// Returns the cached plan for (pattern, opts), compiling and inserting it
  /// on a miss. `was_hit` (optional) reports whether compilation was
  /// skipped. Thread-safe; compilation runs outside the cache lock, so
  /// concurrent misses on distinct patterns compile in parallel (a racing
  /// duplicate compile of the same pattern is discarded, first insert wins).
  /// A plan reads no graph (it is compiled from reorder_for_matching of the
  /// pattern), so one entry serves every graph version of a session.
  std::shared_ptr<const MatchingPlan> get_or_compile(const Pattern& pattern,
                                                     const PlanOptions& opts,
                                                     bool* was_hit = nullptr);

  PlanCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const MatchingPlan> plan;
    std::list<std::string>::iterator lru_it;  // position in lru_ (MRU front)
  };

  /// Looks up `canonical` (moving it to MRU) under mu_. Returns nullptr when
  /// absent.
  std::shared_ptr<const MatchingPlan> lookup_locked(const std::string& key);
  void insert_locked(const std::string& canonical,
                     std::shared_ptr<const MatchingPlan> plan);
  void evict_locked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;        // canonical key -> entry
  std::map<std::string, std::string> aliases_;  // exact key -> canonical key
  std::list<std::string> lru_;                  // canonical keys, MRU first
  PlanCacheStats stats_;
};

}  // namespace stm
