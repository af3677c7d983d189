// PCLMULQDQ CRC-32 kernel. Compiled with -mpclmul -msse4.1 applied to this
// translation unit only; the rest of the program stays at the baseline arch
// and reaches the kernel through crc32()'s dispatch (persist/codec.cpp),
// never by direct call, so a CPU without PCLMULQDQ never executes it.
//
// Algorithm: CRC folding by carry-less multiplication (Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel white paper, 2009), in the bit-reflected domain of zlib's CRC-32:
//  - four 128-bit accumulators each fold 64 bytes ahead per step
//    (k1, k2);
//  - the four fold into one (k3, k4), which then folds each remaining
//    16-byte block;
//  - the 128-bit remainder folds to 64 bits (k4), then to 32 plus a carry
//    (k5), and a Barrett reduction (P', mu) yields the CRC state.
// The folded span is the longest multiple of 16 bytes; inputs shorter than
// 64 bytes and the last len % 16 bytes go through the byte loop, so the
// kernel never loads past the end of its input. Every value equals the byte
// loop's (PersistCodec.* in tests/test_persist.cpp).
#include "persist/codec.hpp"

#if defined(__PCLMUL__) && defined(__SSE4_1__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace stm::persist::detail {
namespace {

__m128i load(const char* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Moves `acc` forward by the distance `k` encodes (k1k2: 512 bits, k3k4:
/// 128 bits) and xors it into `next`: the low half times the low constant,
/// the high half times the high one.
__m128i fold(__m128i acc, __m128i next, __m128i k) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Advances the CRC state `c` (pre- and post-inverted by the caller) over
/// `n` bytes; n >= 64 and a multiple of 16.
std::uint32_t fold_state(std::uint32_t c, const char* p,
                         std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, load(p), k1k2);
    x1 = fold(x1, load(p + 16), k1k2);
    x2 = fold(x2, load(p + 32), k1k2);
    x3 = fold(x3, load(p + 48), k1k2);
  }
  x0 = fold(x0, x1, k3k4);
  x0 = fold(x0, x2, k3k4);
  x0 = fold(x0, x3, k3k4);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, load(p), k3k4);

  // 128 -> 64 bits: the low half times k4, into the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 bits plus carry: the low 32 bits times k5, into the rest.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett reduction: t = (x mod x^32) * mu, then x ^ (t mod x^32) * P'.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

std::uint32_t crc32_pclmul_kernel(std::uint32_t crc,
                                  std::string_view data) noexcept {
  if (data.size() < 64) return crc32_bytewise(crc, data);
  const std::size_t folded = data.size() & ~std::size_t{15};
  crc = ~fold_state(~crc, data.data(), folded);
  return crc32_bytewise(
      crc, std::string_view(data.data() + folded, data.size() - folded));
}

}  // namespace

Crc32Kernel crc32_pclmul_compiled() noexcept { return &crc32_pclmul_kernel; }

}  // namespace stm::persist::detail

#else  // !(defined(__PCLMUL__) && defined(__SSE4_1__))

namespace stm::persist::detail {
Crc32Kernel crc32_pclmul_compiled() noexcept { return nullptr; }
}  // namespace stm::persist::detail

#endif
