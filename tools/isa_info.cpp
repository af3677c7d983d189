// isa_info: reports which SIMD kernel levels this build+CPU combination can
// execute, so scripts (CI's forced-ISA sweep in particular) can skip levels
// cleanly instead of tripping the dispatch layer's fail-loud check_error,
// and which CRC-32 kernel the durability and storage layers dispatch to.
//
//   isa_info                 print every level with supported/unsupported,
//                            the auto-detected best level, and a
//                            `crc32 pclmul|bytewise` line
//   isa_info --check LEVEL   exit 0 if LEVEL is supported, 2 if not
//                            (unknown names exit 1 with a message)
//   isa_info --selftest      invariant checks, used as a unit-tier test
#include <cstdio>
#include <cstring>
#include <string>

#include "persist/codec.hpp"
#include "setops/simd.hpp"

namespace {

using stm::simd::IsaLevel;

constexpr IsaLevel kLevels[] = {IsaLevel::kScalar, IsaLevel::kAvx2};

int print_report() {
  for (const IsaLevel level : kLevels)
    std::printf("%s %s\n", stm::simd::to_string(level),
                stm::simd::is_supported(level) ? "supported" : "unsupported");
  std::printf("best %s\n", stm::simd::to_string(stm::simd::best_supported()));
  std::printf("crc32 %s\n", stm::persist::crc32_kernel());
  return 0;
}

int check(const char* name) {
  IsaLevel level;
  if (!stm::simd::isa_level_from_string(name, &level)) {
    std::fprintf(stderr, "isa_info: unknown level '%s' (scalar|avx2)\n", name);
    return 1;
  }
  return stm::simd::is_supported(level) ? 0 : 2;
}

int selftest() {
  // Scalar is unconditionally supported and best_supported() must itself be
  // a supported level; the kernel table of every supported level must be
  // retrievable and tagged with its own level.
  if (!stm::simd::is_supported(IsaLevel::kScalar)) return 1;
  if (!stm::simd::is_supported(stm::simd::best_supported())) return 1;
  for (const IsaLevel level : kLevels) {
    if (!stm::simd::is_supported(level)) continue;
    if (stm::simd::kernels_for(level).level != level) return 1;
  }
  // The dispatched CRC-32 gives the standard check value and agrees with the
  // byte loop on a buffer long enough to fold, with a tail past the last
  // 16-byte block.
  if (stm::persist::crc32("123456789") != 0xCBF43926u) return 1;
  std::string buf(1031, '\0');
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<char>(i * 131 + 7);
  if (stm::persist::crc32(buf) != stm::persist::detail::crc32_bytewise(0, buf))
    return 1;
  std::printf("isa_info selftest ok (best %s, crc32 %s)\n",
              stm::simd::to_string(stm::simd::best_supported()),
              stm::persist::crc32_kernel());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return print_report();
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return selftest();
  if (argc == 3 && std::strcmp(argv[1], "--check") == 0) return check(argv[2]);
  std::fprintf(stderr,
               "usage: isa_info [--check LEVEL] [--selftest]\n");
  return 1;
}
