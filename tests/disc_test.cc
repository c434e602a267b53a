#include "src/drive/disc.h"

#include <gtest/gtest.h>

#include <vector>

namespace ros::drive {
namespace {

SharedBytes Payload(std::size_t n, std::uint8_t fill) {
  return MakeSharedBytes(std::vector<std::uint8_t>(n, fill));
}

TEST(Disc, CapacitiesMatchMediaTypes) {
  EXPECT_EQ(DiscCapacity(DiscType::kBdr25), 25ull * kGB);
  EXPECT_EQ(DiscCapacity(DiscType::kBdr100), 100ull * kGB);
  EXPECT_TRUE(IsWorm(DiscType::kBdr25));
  EXPECT_TRUE(IsWorm(DiscType::kBdr100));
  EXPECT_FALSE(IsWorm(DiscType::kBdre25));
}

TEST(Disc, AppendSessionTracksCapacity) {
  Disc disc("d1", DiscType::kBdr25);
  EXPECT_TRUE(disc.blank());
  ASSERT_TRUE(disc.AppendSession("img-1", 10 * kGB, Payload(100, 1), true).ok());
  EXPECT_FALSE(disc.blank());
  EXPECT_EQ(disc.burned_bytes(), 10 * kGB);
  EXPECT_EQ(disc.free_bytes(), 15 * kGB);
  ASSERT_TRUE(disc.AppendSession("img-2", 15 * kGB, Payload(100, 2), true).ok());
  EXPECT_EQ(disc.free_bytes(), 0u);
}

TEST(Disc, AppendBeyondCapacityFails) {
  Disc disc("d1", DiscType::kBdr25);
  EXPECT_EQ(disc.AppendSession("img", 26 * kGB, {}, true).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(disc.AppendSession("a", 20 * kGB, {}, true).ok());
  EXPECT_EQ(disc.AppendSession("b", 6 * kGB, {}, true).code(),
            StatusCode::kResourceExhausted);
}

TEST(Disc, PayloadLargerThanLogicalSizeRejected) {
  Disc disc("d1", DiscType::kBdr25);
  EXPECT_EQ(disc.AppendSession("img", 10, Payload(11, 0), true).code(),
            StatusCode::kInvalidArgument);
}

TEST(Disc, OpenSessionBlocksNewAppends) {
  Disc disc("d1", DiscType::kBdr25);
  ASSERT_TRUE(disc.AppendSession("img-1", kGB, {}, /*closed=*/false).ok());
  EXPECT_EQ(disc.AppendSession("img-2", kGB, {}, true).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Disc, ExtendOpenSessionGrowsAccounting) {
  Disc disc("d1", DiscType::kBdr25);
  ASSERT_TRUE(disc.AppendSession("img", kGB, Payload(10, 1), false).ok());
  EXPECT_EQ(disc.burned_bytes(), kGB);
  ASSERT_TRUE(disc.ExtendOpenSession("img", 3 * kGB, Payload(20, 2), true).ok());
  EXPECT_EQ(disc.burned_bytes(), 3 * kGB);
  EXPECT_TRUE(disc.sessions().back().closed);
  // Closed now: further extension is WORM-illegal.
  EXPECT_EQ(disc.ExtendOpenSession("img", 4 * kGB, {}, true).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Disc, ExtendRejectsWrongImageAndShrink) {
  Disc disc("d1", DiscType::kBdr25);
  ASSERT_TRUE(disc.AppendSession("img", kGB, {}, false).ok());
  EXPECT_EQ(disc.ExtendOpenSession("other", 2 * kGB, {}, true).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(disc.ExtendOpenSession("img", kGB / 2, {}, true).code(),
            StatusCode::kInvalidArgument);
}

TEST(Disc, ReadSessionRoundTrip) {
  Disc disc("d1", DiscType::kBdr25);
  ASSERT_TRUE(disc.AppendSession(
      "img", kGB, MakeSharedBytes({1, 2, 3, 4, 5, 6, 7, 8}), true).ok());
  auto read = disc.ReadSession("img", 2, 4);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<std::uint8_t>{3, 4, 5, 6}));
}

TEST(Disc, SparseTailReadsAsZeros) {
  Disc disc("d1", DiscType::kBdr25);
  ASSERT_TRUE(disc.AppendSession("img", kGB, Payload(4, 9), true).ok());
  auto read = disc.ReadSession("img", 2, 6);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<std::uint8_t>{9, 9, 0, 0, 0, 0}));
}

TEST(Disc, SessionSharesThePayloadAndStoresAPrefix) {
  Disc disc("d1", DiscType::kBdr25);
  const SharedBytes payload = MakeSharedBytes({1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_TRUE(disc.AppendSession("img", kGB, payload, /*closed=*/false,
                                 /*stored_bytes=*/3)
                  .ok());
  const Session& session = disc.sessions().back();
  EXPECT_EQ(session.payload, payload);  // no copy
  EXPECT_EQ(session.stored_bytes, 3u);
  auto read = disc.ReadSession("img", 0, 5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<std::uint8_t>{1, 2, 3, 0, 0}));
  // Resuming records a longer prefix of the same payload.
  ASSERT_TRUE(disc.ExtendOpenSession("img", 2 * kGB, payload, true).ok());
  EXPECT_EQ(disc.sessions().back().stored_bytes, 8u);
  // A prefix longer than the payload is a caller bug.
  Disc other("d2", DiscType::kBdr25);
  EXPECT_EQ(other.AppendSession("img", kGB, payload, true, 9).code(),
            StatusCode::kInvalidArgument);
}

TEST(Disc, TamperCopiesOnWrite) {
  const SharedBytes payload = Payload(16, 5);
  Disc a("a", DiscType::kBdr25);
  Disc b("b", DiscType::kBdr25);
  ASSERT_TRUE(a.AppendSession("img", kGB, payload, true).ok());
  ASSERT_TRUE(b.AppendSession("img", kGB, payload, true).ok());
  ASSERT_TRUE(a.TamperSessionData("img", 3, 0x01).ok());
  // The tampered disc reads its own flipped copy...
  auto tampered = a.ReadSession("img", 0, 16);
  ASSERT_TRUE(tampered.ok());
  EXPECT_EQ((*tampered)[3], 4);
  EXPECT_NE(a.sessions().back().payload, payload);
  // ...while the shared payload and the other disc are untouched.
  EXPECT_EQ(*payload, std::vector<std::uint8_t>(16, 5));
  auto clean = b.ReadSession("img", 0, 16);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, std::vector<std::uint8_t>(16, 5));
  EXPECT_EQ(a.TamperSessionData("img", 16, 0x01).code(),
            StatusCode::kOutOfRange);
}

TEST(Disc, ReadBeyondSessionFails) {
  Disc disc("d1", DiscType::kBdr25);
  ASSERT_TRUE(disc.AppendSession("img", 100, {}, true).ok());
  EXPECT_EQ(disc.ReadSession("img", 50, 51).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(disc.ReadSession("missing", 0, 1).status().code(),
            StatusCode::kNotFound);
}

TEST(Disc, CorruptedSectorFailsReadsCoveringIt) {
  Disc disc("d1", DiscType::kBdr25);
  ASSERT_TRUE(disc.AppendSession("img", kGB, Payload(100, 7), true).ok());
  disc.CorruptSector(1);  // bytes [2048, 4096)
  EXPECT_TRUE(disc.ReadSession("img", 0, 100).ok());
  EXPECT_EQ(disc.ReadSession("img", 2048, 10).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(disc.ReadSession("img", 0, 3000).status().code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(disc.ReadSession("img", 4096, 100).ok());
}

TEST(Disc, ScrubFindsOnlyBurnedCorruption) {
  Disc disc("d1", DiscType::kBdr25);
  ASSERT_TRUE(disc.AppendSession("img", 10 * kSectorSize, {}, true).ok());
  disc.CorruptSector(3);
  disc.CorruptSector(999999);  // beyond burned area: latent, not reported
  auto bad = disc.ScrubForErrors();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 3u);
}

TEST(Disc, WormCannotErase) {
  Disc disc("d1", DiscType::kBdr25);
  EXPECT_EQ(disc.Erase().code(), StatusCode::kFailedPrecondition);
}

TEST(Disc, RewritableEraseCycleLimit) {
  Disc disc("d1", DiscType::kBdre25);
  ASSERT_TRUE(disc.AppendSession("img", kGB, {}, true).ok());
  ASSERT_TRUE(disc.Erase().ok());
  EXPECT_TRUE(disc.blank());
  EXPECT_EQ(disc.erase_cycles_used(), 1);
  for (int i = 1; i < kMaxEraseCycles; ++i) {
    ASSERT_TRUE(disc.Erase().ok());
  }
  EXPECT_EQ(disc.Erase().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ros::drive
