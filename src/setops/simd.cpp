#include "setops/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/check.hpp"

namespace stm::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar kernel table: the oracle every vectorized table must match bit for
// bit. These are the classic two-pointer merges; the galloping variants are
// exponential+binary probes identical in structure to the vectorized ones so
// the probe-order-dependent `lo` resumption behaves the same way.

std::size_t scalar_intersect(const VertexId* a, std::size_t an,
                             const VertexId* b, std::size_t bn,
                             VertexId* out) {
  std::size_t i = 0, j = 0, o = 0;
  while (i < an && j < bn) {
    if (a[i] < b[j])
      ++i;
    else if (b[j] < a[i])
      ++j;
    else {
      out[o++] = a[i];
      ++i;
      ++j;
    }
  }
  return o;
}

std::size_t scalar_intersect_count(const VertexId* a, std::size_t an,
                                   const VertexId* b, std::size_t bn) {
  std::size_t i = 0, j = 0, count = 0;
  while (i < an && j < bn) {
    if (a[i] < b[j])
      ++i;
    else if (b[j] < a[i])
      ++j;
    else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

std::size_t scalar_difference(const VertexId* a, std::size_t an,
                              const VertexId* b, std::size_t bn,
                              VertexId* out) {
  std::size_t i = 0, j = 0, o = 0;
  while (i < an && j < bn) {
    if (a[i] < b[j])
      out[o++] = a[i++];
    else if (b[j] < a[i])
      ++j;
    else {
      ++i;
      ++j;
    }
  }
  for (; i < an; ++i) out[o++] = a[i];
  return o;
}

/// Positions `lo` at the first index with b[lo] >= v, galloping forward from
/// the caller's running `lo` (probes are issued for ascending v, so the
/// search window only ever moves right).
std::size_t gallop_lower_bound(const VertexId* b, std::size_t bn,
                               std::size_t lo, VertexId v) {
  std::size_t step = 1, hi = lo;
  while (hi < bn && b[hi] < v) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > bn) hi = bn;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (b[mid] < v)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

std::size_t scalar_gallop_intersect(const VertexId* a, std::size_t an,
                                    const VertexId* b, std::size_t bn,
                                    VertexId* out) {
  std::size_t lo = 0, o = 0;
  for (std::size_t i = 0; i < an && lo < bn; ++i) {
    lo = gallop_lower_bound(b, bn, lo, a[i]);
    if (lo < bn && b[lo] == a[i]) {
      out[o++] = a[i];
      ++lo;
    }
  }
  return o;
}

std::size_t scalar_gallop_intersect_count(const VertexId* a, std::size_t an,
                                          const VertexId* b, std::size_t bn) {
  std::size_t lo = 0, count = 0;
  for (std::size_t i = 0; i < an && lo < bn; ++i) {
    lo = gallop_lower_bound(b, bn, lo, a[i]);
    if (lo < bn && b[lo] == a[i]) {
      ++count;
      ++lo;
    }
  }
  return count;
}

std::size_t scalar_gallop_difference(const VertexId* a, std::size_t an,
                                     const VertexId* b, std::size_t bn,
                                     VertexId* out) {
  std::size_t lo = 0, o = 0;
  for (std::size_t i = 0; i < an; ++i) {
    if (lo < bn) lo = gallop_lower_bound(b, bn, lo, a[i]);
    if (lo < bn && b[lo] == a[i]) {
      ++lo;
      continue;
    }
    out[o++] = a[i];
  }
  return o;
}

constexpr Kernels kScalarKernels = {
    IsaLevel::kScalar,        scalar_intersect,
    scalar_intersect_count,   scalar_difference,
    scalar_gallop_intersect,  scalar_gallop_intersect_count,
    scalar_gallop_difference,
};

// ---------------------------------------------------------------------------
// Dispatch. The table array is filled once (registering whatever the build
// shipped), the CPU capability probe runs once, and the process-wide choice
// is an atomic the force API flips between runs.

struct Dispatch {
  const Kernels* tables[kNumIsaLevels] = {nullptr, nullptr, nullptr};
  IsaLevel best = IsaLevel::kScalar;
  IsaChoice env_force = IsaChoice::kAuto;
};

bool cpu_can_execute(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return true;
    case IsaLevel::kSse42:
    case IsaLevel::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      __builtin_cpu_init();
      return level == IsaLevel::kSse42 ? __builtin_cpu_supports("sse4.2")
                                       : __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

const Dispatch& dispatch() {
  static const Dispatch d = [] {
    Dispatch init;
    init.tables[static_cast<std::size_t>(IsaLevel::kScalar)] = &kScalarKernels;
    if (cpu_can_execute(IsaLevel::kSse42))
      init.tables[static_cast<std::size_t>(IsaLevel::kSse42)] =
          detail::sse42_kernels();
    if (cpu_can_execute(IsaLevel::kAvx2))
      init.tables[static_cast<std::size_t>(IsaLevel::kAvx2)] =
          detail::avx2_kernels();
    for (std::size_t l = 0; l < kNumIsaLevels; ++l)
      if (init.tables[l] != nullptr) init.best = static_cast<IsaLevel>(l);

    if (const char* env = std::getenv("STMATCH_FORCE_ISA");
        env != nullptr && env[0] != '\0') {
      IsaLevel forced = IsaLevel::kScalar;
      STM_CHECK_MSG(isa_level_from_string(env, &forced),
                    "STMATCH_FORCE_ISA='" << env
                                          << "' is not scalar|sse42|avx2");
      STM_CHECK_MSG(
          init.tables[static_cast<std::size_t>(forced)] != nullptr,
          "STMATCH_FORCE_ISA=" << env
                               << " is not supported by this build/CPU");
      init.env_force = static_cast<IsaChoice>(
          static_cast<std::uint8_t>(forced) + 1);
    }
    return init;
  }();
  return d;
}

/// The runtime force (kAuto = defer to env/auto). Relaxed is enough: forcing
/// is a test-only knob flipped between engine runs, never during one.
std::atomic<IsaChoice>& runtime_force() {
  static std::atomic<IsaChoice> force{IsaChoice::kAuto};
  return force;
}

IsaLevel level_of(IsaChoice choice) {
  STM_CHECK(choice != IsaChoice::kAuto);
  return static_cast<IsaLevel>(static_cast<std::uint8_t>(choice) - 1);
}

}  // namespace

const char* to_string(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kSse42:
      return "sse42";
    case IsaLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const char* to_string(IsaChoice choice) {
  return choice == IsaChoice::kAuto ? "auto" : to_string(level_of(choice));
}

bool isa_level_from_string(const char* name, IsaLevel* out) {
  for (std::size_t l = 0; l < kNumIsaLevels; ++l) {
    const auto level = static_cast<IsaLevel>(l);
    if (std::strcmp(name, to_string(level)) == 0) {
      *out = level;
      return true;
    }
  }
  return false;
}

bool isa_choice_from_string(const char* name, IsaChoice* out) {
  if (std::strcmp(name, "auto") == 0) {
    *out = IsaChoice::kAuto;
    return true;
  }
  IsaLevel level = IsaLevel::kScalar;
  if (!isa_level_from_string(name, &level)) return false;
  *out = static_cast<IsaChoice>(static_cast<std::uint8_t>(level) + 1);
  return true;
}

bool is_supported(IsaLevel level) {
  return dispatch().tables[static_cast<std::size_t>(level)] != nullptr;
}

IsaLevel best_supported() { return dispatch().best; }

IsaLevel active_isa() {
  const IsaChoice runtime = runtime_force().load(std::memory_order_relaxed);
  if (runtime != IsaChoice::kAuto) return level_of(runtime);
  if (dispatch().env_force != IsaChoice::kAuto)
    return level_of(dispatch().env_force);
  return dispatch().best;
}

const Kernels& kernels() { return kernels_for(active_isa()); }

const Kernels& kernels_for(IsaLevel level) {
  const Kernels* table = dispatch().tables[static_cast<std::size_t>(level)];
  STM_CHECK_MSG(table != nullptr, "ISA level '" << to_string(level)
                                                << "' is not supported by "
                                                   "this build/CPU");
  return *table;
}

const Kernels& kernels_for_choice(IsaChoice choice) {
  if (choice == IsaChoice::kAuto) return kernels();
  return kernels_for(level_of(choice));
}

void force_isa(IsaChoice choice) {
  if (choice != IsaChoice::kAuto) {
    // Validate eagerly so a bad force fails at the force site, not inside
    // some engine worker later.
    (void)kernels_for(level_of(choice));
  }
  runtime_force().store(choice, std::memory_order_relaxed);
}

IsaChoice forced_isa() {
  return runtime_force().load(std::memory_order_relaxed);
}

}  // namespace stm::simd
