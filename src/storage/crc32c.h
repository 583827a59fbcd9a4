// CRC32C (Castagnoli) checksum, the polynomial Kafka and ext4 use for
// record framing (reflected 0x82F63B78). Header-only so the frame codec,
// the recovery scanner and the shm ring share one definition without a
// link dependency.
//
// Two implementations compute the same function. On x86-64 a CPU with
// SSE4.2 runs the `crc32` instruction 8 bytes per step; everything else
// runs the byte-at-a-time table loop. The choice is made once per
// process, on first use, from the CPU's feature bits — no build flag and
// no runtime switch. Checksums, and so every on-disk and ring frame, are
// identical either way.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pe::storage {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    make_crc32c_table();

/// Portable table loop, one byte per lookup. The reference the hardware
/// path must match bit for bit.
inline std::uint32_t crc32c_table(const void* data, std::size_t size,
                                  std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kCrc32cTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
/// SSE4.2 `crc32` instruction, 8 bytes per step, then a byte tail. Only
/// valid on a CPU that reports sse4.2 (see crc32c_impl).
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_sse42(
    const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t crc = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; size > 0; ++p, --size) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

using Crc32cFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

/// The implementation crc32c() runs, picked once per process.
inline Crc32cFn crc32c_impl() {
  static const Crc32cFn impl = []() -> Crc32cFn {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &crc32c_sse42;
#endif
    return &crc32c_table;
  }();
  return impl;
}

}  // namespace detail

/// One-shot CRC32C over a buffer. `seed` chains partial checksums:
/// crc32c(ab) == crc32c(b, crc32c(a)).
inline std::uint32_t crc32c(const void* data, std::size_t size,
                            std::uint32_t seed = 0) {
  return detail::crc32c_impl()(data, size, seed);
}

}  // namespace pe::storage
