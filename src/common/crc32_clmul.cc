// PCLMULQDQ tier of ros::Crc32: carry-less-multiply folding after Intel's
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Gopal et al., 2009), in the bit-reflected domain of the
// IEEE polynomial 0xEDB88320, with the paper's constants as zlib uses them.
//
// Four 128-bit accumulators fold 64 bytes per step, then collapse into one
// that folds 16 bytes per step; a final fold to 64 bits and a Barrett
// reduction yield the 32-bit CRC register. Only the 16-byte-multiple
// prefix is folded; Crc32Sliced finishes the tail through the CRC
// chaining property.
//
// This translation unit is the only one compiled with -mpclmul -msse4.1
// (see src/common/CMakeLists.txt), so those instructions cannot run
// before the runtime CPU check. On compilers/targets without the flags
// the #else branch reports the tier unavailable and Crc32 stays on the
// slicing-by-8 tier.
#include "src/common/hash.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>
#endif

namespace ros::internal {

#if defined(__PCLMUL__) && defined(__SSE4_1__)

namespace {

// x^n mod P(x), bit-reflected and shifted left by one (33-bit values).
constexpr std::uint64_t kK1 = 0x154442bd4;  // n = 4*128 + 32: fold 64 B
constexpr std::uint64_t kK2 = 0x1c6e41596;  // n = 4*128 - 32
constexpr std::uint64_t kK3 = 0x1751997d0;  // n = 128 + 32: fold 16 B
constexpr std::uint64_t kK4 = 0x0ccaa009e;  // n = 128 - 32
constexpr std::uint64_t kK5 = 0x163cd6124;  // n = 64: fold 96 -> 64 bits
// Barrett reduction: P(x) reflected (P') and floor(x^64 / P(x)) reflected.
constexpr std::uint64_t kPoly = 0x1db710641;
constexpr std::uint64_t kMu = 0x1f7011641;

inline __m128i Load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i Pair(std::uint64_t lo, std::uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}

// One folding step: acc's low half times k's low constant, XOR its high
// half times k's high constant, XOR `next`. This moves acc forward by
// the distance k encodes (64 or 16 bytes) without changing the CRC.
inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

// Folds n bytes (n >= 64, a multiple of 16) into the raw CRC register c
// (pre- and post-inversion are the caller's).
std::uint32_t FoldBlocks(const std::uint8_t* p, std::size_t n,
                         std::uint32_t c) {
  __m128i x0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k1k2 = Pair(kK1, kK2);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
  }

  const __m128i k3k4 = Pair(kK3, kK4);
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = Fold(x0, k3k4, Load(p));
  }

  // 128 -> 96 bits: the low half times k4, onto the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 96 -> 64 bits: the low 32 bits times k5, onto the rest.
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), Pair(kK5, 0), 0x00),
      _mm_srli_si128(x0, 4));

  // Barrett reduction to the 32-bit remainder, left in dword 1.
  const __m128i poly_mu = Pair(kPoly, kMu);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

}  // namespace

bool Crc32ClmulAvailable() {
  static const bool available =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return available;
}

std::uint32_t Crc32Clmul(std::span<const std::uint8_t> data,
                         std::uint32_t seed) {
  if (data.size() < kCrc32ClmulMinBytes) {
    return Crc32Sliced(data, seed);
  }
  const std::size_t folded = data.size() & ~std::size_t{15};
  const std::uint32_t head =
      FoldBlocks(data.data(), folded, seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
  return Crc32Sliced(data.subspan(folded), head);
}

#else  // !(defined(__PCLMUL__) && defined(__SSE4_1__))

bool Crc32ClmulAvailable() { return false; }

std::uint32_t Crc32Clmul(std::span<const std::uint8_t> data,
                         std::uint32_t seed) {
  return Crc32Sliced(data, seed);
}

#endif

}  // namespace ros::internal
