// Byte-span scan kernels for the delta codec (DESIGN.md §10).
//
// The XOR + run-length encoder (criu/delta.hpp) spends nearly all of its
// time answering two questions about a pair of 4 KiB buffers: "where is the
// next differing byte?" (skipping the equal spans that dominate a typical
// dirty page) and "where is the next equal byte?" (bounding a changed run).
// Both primitives compare 8 bytes per step via uint64 XOR + countr_zero /
// zero-byte-detection bit tricks (SWAR: SIMD within a register), finishing
// sub-word tails a byte at a time. The word loop is little-endian only;
// big-endian builds compile the byte loop alone. Either way the returned
// index is exact — tests/page_pipeline_test.cpp checks it against a plain
// byte loop across every word edge.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace nlc::util {

/// The scan kernel a build compiled: kSwar64 on little-endian targets,
/// kScalar (byte loop only) elsewhere. A fact of the build, not a setting.
enum class SimdTier : std::uint8_t { kScalar, kSwar64 };

inline constexpr SimdTier kCompiledSimdTier =
    std::endian::native == std::endian::little ? SimdTier::kSwar64
                                               : SimdTier::kScalar;

constexpr const char* simd_tier_name(SimdTier t) {
  return t == SimdTier::kSwar64 ? "swar64" : "scalar";
}

/// Prefetch `p` for reading into all cache levels. No-op where the builtin
/// is unavailable.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// First index in [i, n) where a and b differ; n if none.
inline std::size_t find_diff(const std::byte* a, const std::byte* b,
                             std::size_t i, std::size_t n) {
  if constexpr (kCompiledSimdTier == SimdTier::kSwar64) {
    while (i + 8 <= n) {
      std::uint64_t x = 0;
      std::uint64_t y = 0;
      std::memcpy(&x, a + i, 8);
      std::memcpy(&y, b + i, 8);
      if (x != y) {
        return i + (static_cast<std::size_t>(std::countr_zero(x ^ y)) >> 3);
      }
      i += 8;
    }
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// First index in [i, n) where a and b agree; n if none.
inline std::size_t find_same(const std::byte* a, const std::byte* b,
                             std::size_t i, std::size_t n) {
  if constexpr (kCompiledSimdTier == SimdTier::kSwar64) {
    constexpr std::uint64_t kLow = 0x0101010101010101ull;
    constexpr std::uint64_t kHigh = 0x8080808080808080ull;
    while (i + 8 <= n) {
      std::uint64_t x = 0;
      std::uint64_t y = 0;
      std::memcpy(&x, a + i, 8);
      std::memcpy(&y, b + i, 8);
      const std::uint64_t v = x ^ y;
      // Zero-byte detection: bits below the first zero byte are exact, so
      // countr_zero lands on the first equal byte.
      const std::uint64_t zero = (v - kLow) & ~v & kHigh;
      if (zero != 0) {
        return i + (static_cast<std::size_t>(std::countr_zero(zero)) >> 3);
      }
      i += 8;
    }
  }
  while (i < n && a[i] != b[i]) ++i;
  return i;
}

}  // namespace nlc::util
