// Plan cache for the query service layer.
//
// Compiling a MatchingPlan runs matching-order selection, automorphism /
// symmetry-breaking analysis and code-motion placement — work worth skipping
// for repeated queries. An entry is keyed by the plan's compile input:
// reorder_for_matching(pattern).to_string() plus the plan options. A plan
// fixes what every stack level means, so it is only valid for a caller whose
// vertex matching_order(pattern)[i] sits at plan position i; under this key a
// hit hands out exactly the plan that caller would compile. A renumbering
// shares an entry only when it reorders to the same pattern. Entries are
// LRU-evicted at `capacity`.
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
  std::uint64_t hits = 0;        // served a cached plan
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
  /// The plan is compiled from reorder_for_matching(pattern): its position i
  /// is the caller's matching_order(pattern)[i]. A plan reads no graph, so
  /// one entry serves every graph version of a session.
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

  /// Looks up `key` (moving it to MRU) under mu_. Returns nullptr when
  /// absent.
  std::shared_ptr<const MatchingPlan> lookup_locked(const std::string& key);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // compile input + options -> entry
  std::list<std::string> lru_;            // keys, MRU first
  PlanCacheStats stats_;
};

}  // namespace stm
