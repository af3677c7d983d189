#include "persist/codec.hpp"

#include <array>
#include <fstream>

namespace stm::persist {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

bool cpu_has_pclmul() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

/// The kernel crc32() calls, chosen on first use. Everything the static's
/// initializer calls is noexcept, so it needs no exception landing pad:
/// added cold code in the library moves e2e_bench's calibration kernel
/// (DESIGN.md §13).
detail::Crc32Kernel dispatched() noexcept {
  static const detail::Crc32Kernel kernel = []() noexcept {
    const detail::Crc32Kernel pclmul = detail::crc32_pclmul();
    return pclmul != nullptr ? pclmul : &detail::crc32_bytewise;
  }();
  return kernel;
}

}  // namespace

std::uint32_t crc32(std::string_view data) { return dispatched()(0, data); }

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::string data;
  char chunk[4096];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
    data.append(chunk, static_cast<std::size_t>(in.gcount()));
  return data;
}

const char* crc32_kernel() noexcept {
  return dispatched() == &detail::crc32_bytewise ? "bytewise" : "pclmul";
}

namespace detail {

std::uint32_t crc32_bytewise(std::uint32_t crc,
                             std::string_view data) noexcept {
  std::uint32_t c = ~crc;
  for (const char ch : data)
    c = kCrcTable[(c ^ static_cast<std::uint8_t>(ch)) & 0xFFu] ^ (c >> 8);
  return ~c;
}

Crc32Kernel crc32_pclmul() noexcept {
  const Crc32Kernel kernel = crc32_pclmul_compiled();
  return kernel != nullptr && cpu_has_pclmul() ? kernel : nullptr;
}

}  // namespace detail

}  // namespace stm::persist
