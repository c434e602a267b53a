// Checksums and fingerprints. CRC-32 guards every durable byte format:
// serialized UDF image streams (src/udf/serializer.cc), audit manifests
// (src/olfs/audit.cc), and the MV's write-ahead log records and segment
// files (src/olfs/mv_log.cc, src/olfs/mv_segment.cc). FNV-1a is the audit
// manifest's leaf and Merkle-node hash, so it too is part of a durable
// format (manifest v1, "ROSAUDT1").
#ifndef ROS_SRC_COMMON_HASH_H_
#define ROS_SRC_COMMON_HASH_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>

namespace ros {

namespace internal {
// kCrc32Tables[0] is the classic bytewise table. Table k maps a byte to
// its CRC contribution when k more zero bytes follow it, which lets the
// sliced loop fold eight input bytes with eight independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeCrc32Tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}
inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    MakeCrc32Tables();
}  // namespace internal

// Bytewise CRC-32: the reference Crc32 is tested and benchmarked against
// (tests/hash_test.cc, bench/gf256_kernels.cc). Not for production paths.
inline std::uint32_t Crc32Bytewise(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0) {
  const auto& table = internal::kCrc32Tables[0];
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

namespace internal {

// Portable tier: slicing-by-8, bit-identical to Crc32Bytewise. The whole
// path on non-x86 builds and CPUs without PCLMULQDQ, and the tail of
// every input on the PCLMULQDQ tier.
inline std::uint32_t Crc32Sliced(std::span<const std::uint8_t> data,
                                 std::uint32_t seed = 0) {
  const auto& t = kCrc32Tables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    // Little-endian loads written bytewise, so the result does not depend
    // on host byte order (compilers fold these into single loads).
    const std::uint32_t lo =
        c ^ (static_cast<std::uint32_t>(p[0]) |
             static_cast<std::uint32_t>(p[1]) << 8 |
             static_cast<std::uint32_t>(p[2]) << 16 |
             static_cast<std::uint32_t>(p[3]) << 24);
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// PCLMULQDQ tier (crc32_clmul.cc, the only translation unit built with
// -mpclmul -msse4.1): carry-less-multiply folding of the 16-byte-multiple
// prefix of inputs of kCrc32ClmulMinBytes or more, then Crc32Sliced for
// the tail. Crc32Clmul accepts any length and is bit-identical to
// Crc32Sliced, but may only be called when Crc32ClmulAvailable(), the
// run-time CPU check (always false on non-x86 builds).
inline constexpr std::size_t kCrc32ClmulMinBytes = 64;
bool Crc32ClmulAvailable();
std::uint32_t Crc32Clmul(std::span<const std::uint8_t> data,
                         std::uint32_t seed = 0);

}  // namespace internal

// Standard CRC-32 (IEEE 802.3): bit-identical to Crc32Bytewise on every
// tier. Chains: Crc32(b, Crc32(a)) == Crc32(a followed by b). Detects
// media bit-rot and torn records; not a cryptographic hash.
inline std::uint32_t Crc32(std::span<const std::uint8_t> data,
                           std::uint32_t seed = 0) {
  if (data.size() >= internal::kCrc32ClmulMinBytes &&
      internal::Crc32ClmulAvailable()) {
    return internal::Crc32Clmul(data, seed);
  }
  return internal::Crc32Sliced(data, seed);
}

inline constexpr std::uint64_t kFnv1a64Basis = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001B3ull;

// 64-bit FNV-1a. Durable: the audit manifest's leaf and Merkle-node hash
// (src/olfs/audit.cc). Also the placement shard hash, the fetch-dedup key
// and the benches' content fingerprints. Chains like Crc32:
// Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a followed by b).
inline std::uint64_t Fnv1a64(std::span<const std::uint8_t> data,
                             std::uint64_t h = kFnv1a64Basis) {
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= kFnv1a64Prime;
  }
  return h;
}

}  // namespace ros

#endif  // ROS_SRC_COMMON_HASH_H_
