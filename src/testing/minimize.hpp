// Delta-debugging case minimizer.
//
// Given a failing TestCase and a predicate that decides "still failing",
// minimize() greedily shrinks the case until a fixpoint: graph vertices
// (ddmin-style chunked removal of induced subsets), graph edges, the
// pattern (vertex and edge drops that keep it connected), then each lane's
// knobs toward their simplest values (lanes.hpp; the ISA pin last).
// Every probe rebuilds a complete, self-consistent TestCase, so the result
// replays through the same oracle as the original and serializes to a
// .repro file that reproduces the failure on its own.
//
// The predicate is arbitrary: the fuzz driver passes oracle_disagrees or a
// metamorphic-violation closure, and tests pass synthetic predicates.
#pragma once

#include <cstdint>
#include <functional>

#include "testing/workload.hpp"

namespace stm::harness {

using FailurePredicate = std::function<bool(const TestCase&)>;

struct MinimizeOptions {
  /// Full shrink passes over every axis before giving up on progress.
  std::uint32_t max_rounds = 16;
  /// Hard cap on predicate evaluations (each is a full oracle run).
  std::uint64_t max_probes = 5000;
};

struct MinimizeResult {
  TestCase reduced;
  /// False iff the input did not fail the predicate (nothing to minimize).
  bool still_failing = false;
  std::uint64_t probes = 0;
  std::uint32_t rounds = 0;
};

/// Shrinks `failing` while `fails` keeps returning true. Deterministic: the
/// probe order depends only on the case contents. A predicate that throws is
/// treated as "candidate invalid, not the failure being chased" (the ddmin
/// unresolved outcome) and the shrink step is rejected.
MinimizeResult minimize(const TestCase& failing, const FailurePredicate& fails,
                        const MinimizeOptions& opts = {});

}  // namespace stm::harness
