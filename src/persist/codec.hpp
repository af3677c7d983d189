// Binary codec primitives for the durability layer (DESIGN.md §13).
//
// Both the write-ahead log and the checkpoint files are sequences of
// explicitly little-endian scalars — no struct dumps, no host-endianness
// leaks — framed as `u32 length | u32 crc32(payload) | payload`. The reader
// side is fully bounds-checked: a truncated or garbled file surfaces as a
// check_error (or a failed crc) at the exact offset, never as UB, which is
// what lets recovery treat "torn tail" as an expected, recoverable state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/check.hpp"

namespace stm::persist {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) over `data`.
/// Matches zlib's crc32() so external tooling can cross-check frames.
/// Dispatches, once from CPUID, to the PCLMULQDQ folding kernel when the
/// build and the CPU support it and to the byte-at-a-time table loop
/// otherwise; both return the same value for every input.
std::uint32_t crc32(std::string_view data);

/// The kernel crc32() dispatches to: "pclmul" or "bytewise".
const char* crc32_kernel() noexcept;

// Internal: the two kernels, exposed for the conformance tests and the
// benchmarks. Both follow zlib's chaining convention:
// kernel(kernel(0, a), b) == kernel(0, a + b), and kernel(0, x) == crc32(x).
namespace detail {
using Crc32Kernel = std::uint32_t (*)(std::uint32_t crc,
                                      std::string_view data) noexcept;

/// Byte-at-a-time table loop: the portable path, the PCLMUL kernel's tail,
/// and the reference the PCLMUL kernel is tested against.
std::uint32_t crc32_bytewise(std::uint32_t crc, std::string_view data) noexcept;

/// The PCLMULQDQ kernel if the build has it and the CPU can execute it,
/// nullptr otherwise.
Crc32Kernel crc32_pclmul() noexcept;

/// The PCLMULQDQ kernel as compiled (persist/crc32_clmul.cpp), without the
/// CPU check; nullptr when the build lacks it (STMATCH_SIMD=OFF, a non-x86
/// target, or a compiler without -mpclmul).
Crc32Kernel crc32_pclmul_compiled() noexcept;
}  // namespace detail

/// The whole file at `path`, or nullopt when it cannot be opened. WAL and
/// checkpoint reads go through here.
std::optional<std::string> read_file(const std::string& path);

/// Appends little-endian scalars and length-prefixed strings to a buffer.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// Length-prefixed (u32) byte string.
  void str(std::string_view s) {
    STM_CHECK_MSG(s.size() <= UINT32_MAX, "string too large to serialize");
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a byte buffer; every overrun throws
/// check_error instead of reading past the end.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    STM_CHECK_MSG(pos_ < data_.size(), "serialized payload truncated");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    STM_CHECK_MSG(len <= data_.size() - pos_, "serialized string truncated");
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace stm::persist
