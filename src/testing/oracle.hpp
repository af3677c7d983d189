// Differential oracle: every engine must report the same count.
//
// One TestCase runs through all executors — the brute-force reference (the
// gold standard, sharing no candidate-set machinery with the optimized
// paths), the sequential recursive executor, the host-thread engine, the
// SIMT stack machine — and through the IncrementalMatcher by replaying the
// whole graph as one update batch over an edgeless base (count(∅) + Δ must
// equal the full count). Exact agreement, never tolerance: counts are
// integers and the paper's cross-system validation (§VIII) is bit-exact.
//
// Every executor but the reference is a lane (lanes.hpp); the lanes also
// cover sharding, streams, storage backends and the multi-query index, all
// under the case's SIMD pin. Lanes whose preconditions a case violates, or
// whose size cap it exceeds, are skipped and recorded as such, so a
// disagreement report always lists which executors actually voted.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "testing/workload.hpp"

namespace stm::harness {

enum class EngineKind : std::uint8_t {
  kReference = 0,  // brute-force enumerator (expected value)
  kRecursive,      // sequential plan executor
  kHost,           // host-thread engine
  kSimt,           // simulated-GPU stack engine
  kIncremental,    // IncrementalMatcher replaying the graph as one batch
  kSharded,        // cross-shard coordinator over the case's sampled partition
  kStream,         // drained embedding streams (service layer, all engines)
  kStorage,        // engines re-run over the case's sampled storage backend
  kMqo,            // shared-prefix multi-query index vs per-pattern matchers
};

const char* to_string(EngineKind kind);

struct OracleOptions {
  /// Lanes not to run (reported as skipped). The reference always runs.
  std::set<EngineKind> skip;
};

struct EngineCount {
  EngineKind engine = EngineKind::kReference;
  std::uint64_t count = 0;
};

struct OracleReport {
  /// The reference count (what every other executor must equal).
  std::uint64_t expected = 0;
  /// One entry per executor that ran (reference first, then table order).
  std::vector<EngineCount> counts;
  /// Executors in OracleOptions::skip or inapplicable to the case.
  std::vector<EngineKind> skipped;
  bool agreed = true;
  /// Human-readable detail on non-count disagreements (stream order /
  /// multiset / cursor failures); empty when everything agreed.
  std::vector<std::string> notes;

  /// Multi-line human-readable summary (per-engine counts, mismatches).
  std::string describe() const;
};

/// Runs every applicable executor on `c` and compares counts exactly.
///
/// Hidden test-only sabotage hook: setting the environment variable
/// STMATCH_FUZZ_SABOTAGE=host_off_by_one perturbs the host-engine count by
/// +1 whenever it is nonzero, so the harness's own detection and
/// minimization paths can be exercised end to end (see TESTING.md).
OracleReport run_oracle(const TestCase& c, const OracleOptions& opts = {});

/// The default minimizer predicate: true iff run_oracle disagrees.
bool oracle_disagrees(const TestCase& c);

}  // namespace stm::harness
