#include "src/common/hash.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace ros {
namespace {

std::span<const std::uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32, KnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32(Bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(Bytes("")), 0u);
  EXPECT_EQ(Crc32(Bytes("a")), 0xE8B7BE43u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(4096, 0xAB);
  std::uint32_t clean = Crc32(data);
  data[1000] ^= 0x01;
  EXPECT_NE(Crc32(data), clean);
}

TEST(Crc32, SeedChaining) {
  // The MV log and segment checksums (src/olfs/mv_log.cc,
  // src/olfs/mv_segment.cc) chain partial CRCs: Crc32(b, Crc32(a)) must
  // equal the CRC of a followed by b, at every split point.
  const std::string full = "hello world, chained across a slice boundary";
  const std::uint32_t whole = Crc32(Bytes(full));
  for (std::size_t split = 0; split <= full.size(); ++split) {
    const std::uint32_t head = Crc32(Bytes(full.substr(0, split)));
    EXPECT_EQ(Crc32(Bytes(full.substr(split)), head), whole) << split;
  }
  EXPECT_EQ(Crc32(Bytes("world"), Crc32(Bytes("hello "))),
            Crc32(Bytes("hello world")));
}

using Crc32Tier = std::uint32_t (*)(std::span<const std::uint8_t>,
                                     std::uint32_t);

// Every length 0..4096 at every start offset 0..7 (so the 8-byte and
// 16-byte loops see every alignment and every tail length), each from a
// fresh seed, plus the chaining property at a spread of split points.
void ExpectMatchesBytewise(Crc32Tier crc) {
  Rng rng(7);
  std::vector<std::uint8_t> buf(4096 + 8);
  for (auto& b : buf) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      const auto seed = static_cast<std::uint32_t>(rng.Next());
      ASSERT_EQ(crc(data, seed), Crc32Bytewise(data, seed))
          << "offset " << offset << " len " << len << " seed " << seed;
      ASSERT_EQ(crc(data, 0), Crc32Bytewise(data))
          << "offset " << offset << " len " << len;
    }
  }
  const std::span<const std::uint8_t> all(buf.data(), 4096);
  const std::uint32_t whole = Crc32Bytewise(all);
  for (std::size_t split = 0; split <= all.size(); split += 61) {
    ASSERT_EQ(crc(all.subspan(split), crc(all.first(split), 0)), whole)
        << "split " << split;
  }
}

TEST(Crc32, SlicedTierMatchesBytewiseReference) {
  ExpectMatchesBytewise(&internal::Crc32Sliced);
}

TEST(Crc32, ClmulTierMatchesBytewiseReference) {
  if (!internal::Crc32ClmulAvailable()) {
    GTEST_SKIP() << "CPU or build lacks PCLMULQDQ + SSE4.1; Crc32 runs "
                    "the slicing-by-8 tier";
  }
  ExpectMatchesBytewise(&internal::Crc32Clmul);
}

TEST(Crc32, DispatchedMatchesBytewiseReference) {
  ExpectMatchesBytewise(&Crc32);
}

TEST(Fnv1a64, StableAndSensitive) {
  EXPECT_EQ(Fnv1a64(Bytes("")), 0xCBF29CE484222325ull);
  EXPECT_NE(Fnv1a64(Bytes("abc")), Fnv1a64(Bytes("abd")));
  EXPECT_EQ(Fnv1a64(Bytes("abc")), Fnv1a64(Bytes("abc")));
  // The audit leaf kernel finishes interleaved chains through the seed.
  EXPECT_EQ(Fnv1a64(Bytes("def"), Fnv1a64(Bytes("abc"))),
            Fnv1a64(Bytes("abcdef")));
}

}  // namespace
}  // namespace ros
