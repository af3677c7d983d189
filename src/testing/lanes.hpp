// The conformance harness's lane table.
//
// A lane is one differential check of the oracle plus everything the
// harness must know about the TestCase knobs it owns: how random_case
// samples them (from the lane's own derived RNG stream, so a new lane never
// perturbs existing seeds), when the check applies, how the minimizer
// simplifies them, and how .repro files and describe() spell them.
// random_case, run_oracle, minimize, to_repro / from_repro and describe
// loop over lanes() and name no lane: adding a lane is one table entry.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "testing/minimize.hpp"
#include "testing/oracle.hpp"
#include "testing/repro.hpp"
#include "testing/workload.hpp"
#include "util/rng.hpp"

namespace stm::harness {

struct Lane {
  /// Also to_string() of the lane's vote.
  const char* name = nullptr;
  /// The executor this lane votes as; the ISA pin has no vote.
  std::optional<EngineKind> vote = std::nullopt;
  /// Position among the lanes' minimizer steps and .repro sections
  /// (ascending). Votes and describe() follow the table order instead,
  /// because version-1 files put the mqo section before storage and isa
  /// while describe() prints mqo last, and the ISA reset must run last.
  int rank = 0;
  /// random_case draws the lane's knobs from Rng(seed ^ salt) after the
  /// main stream is done.
  std::uint64_t salt = 0;
  void (*sample)(Rng& rng, const WorkloadOptions& opts, TestCase& c) = nullptr;
  /// Null = the lane always applies. `expected` is the reference count.
  bool (*applies)(const TestCase& c, std::uint64_t expected) = nullptr;
  /// Appends the lane's vote and any disagreement notes to `report`.
  void (*check)(const TestCase& c, const MatchingPlan& plan,
                OracleReport& report) = nullptr;
  /// Held for the whole oracle run (the ISA pin's kernel-table scope).
  std::shared_ptr<void> (*scope)(const TestCase& c) = nullptr;
  /// Minimizer step: shrinks the lane's knobs while `fails` (the
  /// minimizer's budgeted predicate) holds; returns whether anything
  /// changed.
  bool (*shrink)(TestCase& c, const FailurePredicate& fails) = nullptr;
  /// .repro section key; the writer emits nothing at default knobs, the
  /// reader is called on the section's first line and consumes its lines.
  const char* section = nullptr;
  void (*write)(std::ostream& os, const TestCase& c) = nullptr;
  void (*read)(ReproReader& reader, TestCase& c) = nullptr;
  /// Appends ` key=value` fields to describe().
  void (*describe)(std::ostream& os, const TestCase& c) = nullptr;
};

/// Every lane, in vote order.
std::span<const Lane> lanes();
/// The same lanes sorted by Lane::rank.
const std::vector<const Lane*>& lanes_by_rank();

}  // namespace stm::harness
