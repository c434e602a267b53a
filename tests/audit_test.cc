// Audit manifest codec + Merkle math (DESIGN.md §5j). Pure unit tests:
// the physical (sampled-read) verification path lives in
// preservation_test.cc; here we prove the hash tree behaves and that the
// binary parser fails *cleanly* on arbitrary damage — the same contract
// the fuzz harness (FuzzAuditManifest) hammers continuously.
#include "src/olfs/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace ros::olfs {
namespace {

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

AuditManifest SampleManifest() {
  AuditManifest manifest;
  manifest.tray_index = 7;
  manifest.leaf_bytes = 1024;
  for (int m = 0; m < 3; ++m) {
    AuditMember member;
    member.image_id = "img-" + std::to_string(m);
    const auto stream = RandomBytes(3000 + m * 500, 40 + m);
    member.stream_bytes = stream.size();
    member.leaves = AuditLeafHashes(
        std::span<const std::uint8_t>(stream.data(), stream.size()),
        manifest.leaf_bytes);
    member.root = AuditMerkleRoot(member.leaves);
    manifest.members.push_back(std::move(member));
  }
  // An empty member (zero-byte image) must still chain.
  AuditMember empty;
  empty.image_id = "img-empty";
  empty.root = AuditMerkleRoot(empty.leaves);
  manifest.members.push_back(std::move(empty));
  manifest.array_root = AuditArrayRoot(manifest);
  return manifest;
}

TEST(AuditMerkle, LeafHashingCoversEveryChunkBoundary) {
  const auto stream = RandomBytes(2500, 1);
  const std::span<const std::uint8_t> view(stream.data(), stream.size());
  // 1024-byte leaves over 2500 bytes: 1024 + 1024 + 452.
  auto leaves = AuditLeafHashes(view, 1024);
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0], AuditHashLeaf(view.subspan(0, 1024)));
  EXPECT_EQ(leaves[1], AuditHashLeaf(view.subspan(1024, 1024)));
  EXPECT_EQ(leaves[2], AuditHashLeaf(view.subspan(2048, 452)));
  // Exact multiple: no ragged tail leaf.
  EXPECT_EQ(AuditLeafHashes(view.subspan(0, 2048), 1024).size(), 2u);
  // leaf_bytes=0 is the disabled configuration: no leaves at all.
  EXPECT_TRUE(AuditLeafHashes(view, 0).empty());
}

TEST(AuditMerkle, InterleavedLeafHashesMatchPerLeafLoop) {
  // AuditLeafHashes hashes up to four leaves at a time; the lengths cover
  // groups of two, three and four, a short last leaf inside a group (its
  // siblings finish their tails serially) and one leaf left on its own.
  for (const std::size_t leaf : {std::size_t{1}, std::size_t{3},
                                 std::size_t{64}, std::size_t{256} << 10}) {
    const auto stream = RandomBytes(9 * leaf + 7, leaf);
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, leaf - 1, leaf, leaf + 1, 3 * leaf,
          4 * leaf - 1, 4 * leaf, 4 * leaf + 1, 9 * leaf + 7}) {
      const std::span<const std::uint8_t> view(stream.data(), len);
      std::vector<std::uint64_t> expected;
      for (std::size_t at = 0; at < len; at += leaf) {
        expected.push_back(
            AuditHashLeaf(view.subspan(at, std::min(leaf, len - at))));
      }
      EXPECT_EQ(AuditLeafHashes(view, leaf), expected)
          << "leaf " << leaf << " len " << len;
    }
  }
}

TEST(AuditMerkle, RootPropertiesHoldForAllShapes) {
  // Empty tree: fixed sentinel.
  EXPECT_EQ(AuditMerkleRoot({}), 0xCBF29CE484222325ull);
  // Single leaf is its own root.
  EXPECT_EQ(AuditMerkleRoot({42}), 42u);
  // Order matters: swapping leaves changes the root.
  EXPECT_NE(AuditMerkleRoot({1, 2}), AuditMerkleRoot({2, 1}));
  // Any single-leaf change propagates to the root, including the odd
  // promoted node.
  const std::vector<std::uint64_t> base = {10, 20, 30, 40, 50};
  const std::uint64_t root = AuditMerkleRoot(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::vector<std::uint64_t> flipped = base;
    flipped[i] ^= 1;
    EXPECT_NE(AuditMerkleRoot(flipped), root) << "leaf " << i;
  }
  // Deterministic.
  EXPECT_EQ(AuditMerkleRoot(base), root);
}

TEST(AuditCodec, RoundTripPreservesEveryField) {
  const AuditManifest manifest = SampleManifest();
  const std::vector<std::uint8_t> blob = SerializeAuditManifest(manifest);
  auto parsed = ParseAuditManifest(
      std::span<const std::uint8_t>(blob.data(), blob.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tray_index, manifest.tray_index);
  EXPECT_EQ(parsed->leaf_bytes, manifest.leaf_bytes);
  EXPECT_EQ(parsed->array_root, manifest.array_root);
  ASSERT_EQ(parsed->members.size(), manifest.members.size());
  for (std::size_t m = 0; m < manifest.members.size(); ++m) {
    EXPECT_EQ(parsed->members[m].image_id, manifest.members[m].image_id);
    EXPECT_EQ(parsed->members[m].stream_bytes,
              manifest.members[m].stream_bytes);
    EXPECT_EQ(parsed->members[m].leaves, manifest.members[m].leaves);
    EXPECT_EQ(parsed->members[m].root, manifest.members[m].root);
  }
  // Serialize(Parse(x)) == x: the codec is canonical.
  EXPECT_EQ(SerializeAuditManifest(*parsed), blob);
}

TEST(AuditCodec, EveryTruncationFailsCleanly) {
  const std::vector<std::uint8_t> blob =
      SerializeAuditManifest(SampleManifest());
  for (std::size_t n = 0; n < blob.size(); ++n) {
    auto parsed = ParseAuditManifest(
        std::span<const std::uint8_t>(blob.data(), n));
    ASSERT_FALSE(parsed.ok()) << "prefix " << n;
    const StatusCode code = parsed.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kDataLoss)
        << "prefix " << n << ": " << parsed.status().ToString();
  }
}

TEST(AuditCodec, EveryBitflipIsDetected) {
  const std::vector<std::uint8_t> blob =
      SerializeAuditManifest(SampleManifest());
  for (std::size_t at = 0; at < blob.size(); ++at) {
    std::vector<std::uint8_t> bad = blob;
    bad[at] ^= 0x01;
    auto parsed = ParseAuditManifest(
        std::span<const std::uint8_t>(bad.data(), bad.size()));
    ASSERT_FALSE(parsed.ok()) << "flip at " << at;
    const StatusCode code = parsed.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kDataLoss)
        << "flip at " << at << ": " << parsed.status().ToString();
  }
}

// A manifest whose stored hashes do not recompute proves nothing, even
// when its CRC is intact: the parser must reject it as data loss.
TEST(AuditCodec, InternallyInconsistentRootsAreDataLoss) {
  AuditManifest lying = SampleManifest();
  lying.members[0].root ^= 1;  // no longer matches its own leaves
  lying.array_root = AuditArrayRoot(lying);  // keep the outer chain valid
  const std::vector<std::uint8_t> blob = SerializeAuditManifest(lying);
  auto parsed = ParseAuditManifest(
      std::span<const std::uint8_t>(blob.data(), blob.size()));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);

  AuditManifest wrong_array = SampleManifest();
  wrong_array.array_root ^= 1;
  const std::vector<std::uint8_t> blob2 =
      SerializeAuditManifest(wrong_array);
  auto parsed2 = ParseAuditManifest(
      std::span<const std::uint8_t>(blob2.data(), blob2.size()));
  ASSERT_FALSE(parsed2.ok());
  EXPECT_EQ(parsed2.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace ros::olfs
