// Runtime-dispatched SIMD set-operation kernels.
//
// The host engine's enumeration time is dominated by sorted-set
// intersection/difference over candidate lists (paper Fig. 1 line 7/10).
// This module provides AVX2 and SSE4.2 implementations of the scalar
// building blocks in set_ops.hpp behind a dispatch table selected once at
// startup from CPUID, with the scalar merge loops as the always-available
// fallback and oracle.
//
// Bit-exactness contract: for every kernel table K and strictly-ascending
// inputs, K.op(a, b) produces byte-identical output (same elements, same
// order) and identical counts as the scalar table. The ISA-sweeping
// conformance suite (tests/test_setops_simd.cpp) proves this for every op x
// length x alignment x seam-duplicate x skew combination under every level
// the build and CPU support, and the differential harness re-proves it on
// whole-query counts (TESTING.md).
//
// Dispatch order: a per-plan override (PlanOptions::forced_isa) beats the
// process-wide force (STMATCH_FORCE_ISA env, read once at startup, or
// force_isa() for tests), which beats CPUID auto-detection. Forcing a level
// the build or CPU cannot execute is a check_error — silently falling back
// would let CI "pass" the AVX2 sweep on a scalar build.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/types.hpp"

namespace stm::simd {

/// Instruction-set levels a kernel table can be compiled for, in strictly
/// increasing capability order. kScalar is always supported.
enum class IsaLevel : std::uint8_t {
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
};
inline constexpr std::size_t kNumIsaLevels = 3;

/// Per-run ISA selection knob (PlanOptions::forced_isa): kAuto follows the
/// process-wide dispatch, everything else pins one level.
enum class IsaChoice : std::uint8_t {
  kAuto = 0,
  kScalar = 1,
  kSse42 = 2,
  kAvx2 = 3,
};

const char* to_string(IsaLevel level);
const char* to_string(IsaChoice choice);
/// Parses "scalar" / "sse42" / "avx2" (and "auto" for choices). Returns
/// false on unknown names.
bool isa_level_from_string(const char* name, IsaLevel* out);
bool isa_choice_from_string(const char* name, IsaChoice* out);

/// Vectorized kernels store whole vectors and advance the write head by
/// popcount, so output buffers must have this many lanes of headroom past
/// the logical result size (min(an, bn) for intersections, an for
/// differences). The scalar table never touches the slack, but callers size
/// for the worst table so a forced-ISA rerun never changes allocation.
inline constexpr std::size_t kSimdOutSlack = 8;

/// One vtable of set-operation kernels, all sharing the scalar contract:
/// inputs strictly ascending, outputs strictly ascending, `out` sized by the
/// caller (>= min(an, bn) + kSimdOutSlack for intersections, >= an +
/// kSimdOutSlack for differences). All return the number of elements
/// written / counted.
struct Kernels {
  IsaLevel level = IsaLevel::kScalar;

  /// a ∩ b via (vectorized) two-pointer block merge — the balanced-size
  /// workhorse.
  std::size_t (*intersect)(const VertexId* a, std::size_t an,
                           const VertexId* b, std::size_t bn, VertexId* out);
  /// |a ∩ b| without materializing.
  std::size_t (*intersect_count)(const VertexId* a, std::size_t an,
                                 const VertexId* b, std::size_t bn);
  /// a \ b via (vectorized) block merge.
  std::size_t (*difference)(const VertexId* a, std::size_t an,
                            const VertexId* b, std::size_t bn, VertexId* out);
  /// Galloping probe of each element of `a` (the smaller side) into `b`,
  /// with a vectorized compare over the final anchor block — the skewed-size
  /// variant. Callers must pass the smaller set as `a`.
  std::size_t (*gallop_intersect)(const VertexId* a, std::size_t an,
                                  const VertexId* b, std::size_t bn,
                                  VertexId* out);
  std::size_t (*gallop_intersect_count)(const VertexId* a, std::size_t an,
                                        const VertexId* b, std::size_t bn);
  /// Galloping a \ b (elements of `a` absent from `b`); skewed-size variant,
  /// profitable when |b| >> |a|.
  std::size_t (*gallop_difference)(const VertexId* a, std::size_t an,
                                   const VertexId* b, std::size_t bn,
                                   VertexId* out);
};

/// True iff the build contains kernels for `level` AND the running CPU can
/// execute them. kScalar is always true.
bool is_supported(IsaLevel level);

/// The highest supported level (what auto-detection picks).
IsaLevel best_supported();

/// The level the unqualified kernels() table currently dispatches to
/// (forced level if a force is active, best_supported() otherwise).
IsaLevel active_isa();

/// The process-wide dispatch table. First use reads STMATCH_FORCE_ISA
/// (scalar|sse42|avx2; unset or empty = auto-detect; unknown or unsupported
/// values are a check_error).
const Kernels& kernels();

/// The table of one specific level; check_error if unsupported.
const Kernels& kernels_for(IsaLevel level);

/// Resolves a per-plan choice against the global dispatch: kAuto returns
/// kernels(), anything else the pinned level's table (check_error if that
/// level is unsupported).
const Kernels& kernels_for_choice(IsaChoice choice);

/// Overrides the process-wide dispatch (kAuto clears the override, reverting
/// to env/CPUID). Takes effect on the next kernels() call; not synchronized
/// against concurrently running engines — tests force between runs.
void force_isa(IsaChoice choice);

/// The currently forced level (kAuto when unforced).
IsaChoice forced_isa();

/// RAII force for tests: forces in the constructor, restores the previous
/// force in the destructor.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(IsaChoice choice)
      : previous_(forced_isa()) {
    force_isa(choice);
  }
  ~ScopedForceIsa() { force_isa(previous_); }
  ScopedForceIsa(const ScopedForceIsa&) = delete;
  ScopedForceIsa& operator=(const ScopedForceIsa&) = delete;

 private:
  IsaChoice previous_;
};

/// Size-ratio threshold at which the skewed (galloping) kernels beat the
/// block-merge ones: gallop when larger/smaller >= this. Measured on the
/// micro_setops grid (EXPERIMENTS.md) — merge degrades gracefully up to
/// ~16x skew, galloping wins clearly past ~32x; 32 keeps the merge kernels
/// on every balanced workload.
inline constexpr std::size_t kGallopSkewRatio = 32;

// Internal: per-ISA tables registered by their translation units. Return
// nullptr when the build lacks the level (non-x86 target, STMATCH_SIMD=OFF,
// or a compiler without the arch flag).
namespace detail {
const Kernels* sse42_kernels();
const Kernels* avx2_kernels();
}  // namespace detail

}  // namespace stm::simd
