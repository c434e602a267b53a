// Tests of the iSCSI-style block gateway (§4.2's block-level interface).
#include "src/frontend/block_gateway.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/sim/time.h"

namespace ros::frontend {
namespace {

using olfs::Olfs;
using olfs::RosSystem;

std::vector<std::uint8_t> RandomBlocks(std::uint64_t blocks,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(blocks * BlockGateway::kBlockSize);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

class BlockGatewayTest : public ::testing::Test {
 protected:
  BlockGatewayTest() {
    system_ = std::make_unique<RosSystem>(sim_, olfs::TestSystemConfig());
    olfs::OlfsParams params;
    params.disc_capacity_override = 16 * kMiB;
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = sim::Seconds(1);
    lun_ = std::make_unique<BlockGateway>(olfs_.get(), "lun0", 64 * kMiB,
                                          1 * kMiB);
  }

  // Destroy suspended background coroutines (burn/snapshot/scrub loops)
  // while the system objects they borrow are still alive.
  ~BlockGatewayTest() override { sim_.Shutdown(); }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
  std::unique_ptr<BlockGateway> lun_;
};

TEST_F(BlockGatewayTest, WriteReadRoundTrip) {
  auto data = RandomBlocks(16, 1);
  ASSERT_TRUE(sim_.RunUntilComplete(lun_->WriteBlocks(100, data)).ok());
  auto read = sim_.RunUntilComplete(lun_->ReadBlocks(100, 16));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(BlockGatewayTest, UnwrittenBlocksReadZero) {
  auto read = sim_.RunUntilComplete(lun_->ReadBlocks(5000, 4));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::vector<std::uint8_t>(4 * 512, 0));
}

TEST_F(BlockGatewayTest, ThinProvisioningMaterializesLazily) {
  auto chunks = sim_.RunUntilComplete(lun_->MaterializedChunks());
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(*chunks, 0);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  lun_->WriteBlocks(0, RandomBlocks(1, 2))).ok());
  chunks = sim_.RunUntilComplete(lun_->MaterializedChunks());
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(*chunks, 1);  // only the touched 1 MiB chunk exists
}

TEST_F(BlockGatewayTest, WriteSpanningChunkBoundary) {
  // Chunk = 1 MiB = 2048 blocks; write across the 2048-block boundary.
  auto data = RandomBlocks(64, 3);
  ASSERT_TRUE(sim_.RunUntilComplete(lun_->WriteBlocks(2048 - 32, data)).ok());
  auto read = sim_.RunUntilComplete(lun_->ReadBlocks(2048 - 32, 64));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  auto chunks = sim_.RunUntilComplete(lun_->MaterializedChunks());
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(*chunks, 2);
}

TEST_F(BlockGatewayTest, OverwritePreservesNeighbours) {
  auto first = RandomBlocks(8, 4);
  ASSERT_TRUE(sim_.RunUntilComplete(lun_->WriteBlocks(10, first)).ok());
  auto overwrite = RandomBlocks(2, 5);
  ASSERT_TRUE(sim_.RunUntilComplete(lun_->WriteBlocks(12, overwrite)).ok());

  auto read = sim_.RunUntilComplete(lun_->ReadBlocks(10, 8));
  ASSERT_TRUE(read.ok());
  // Blocks 10-11 and 14-17 from the first write, 12-13 overwritten.
  std::vector<std::uint8_t> expect(first.begin(), first.begin() + 2 * 512);
  expect.insert(expect.end(), overwrite.begin(), overwrite.end());
  expect.insert(expect.end(), first.begin() + 4 * 512, first.end());
  EXPECT_EQ(*read, expect);
}

TEST_F(BlockGatewayTest, OverwritesAreWormVersions) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  lun_->WriteBlocks(0, RandomBlocks(1, 6))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  lun_->WriteBlocks(0, RandomBlocks(1, 7))).ok());
  auto info = sim_.RunUntilComplete(olfs_->Stat(lun_->ChunkPath(0)));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2);
  // The pre-overwrite LUN state is still reachable (provenance).
  auto v1 = sim_.RunUntilComplete(
      olfs_->ReadVersion(lun_->ChunkPath(0), 1, 0, 512));
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(std::equal(v1->begin(), v1->end(),
                         RandomBlocks(1, 6).begin()));
}

TEST_F(BlockGatewayTest, BoundsAndAlignmentEnforced) {
  EXPECT_EQ(sim_.RunUntilComplete(
                lun_->WriteBlocks(lun_->num_blocks() - 1,
                                  RandomBlocks(2, 8)))
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(sim_.RunUntilComplete(
                lun_->WriteBlocks(0, std::vector<std::uint8_t>(100)))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sim_.RunUntilComplete(
                lun_->ReadBlocks(lun_->num_blocks(), 1))
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST_F(BlockGatewayTest, LunContentSurvivesBurning) {
  auto data = RandomBlocks(32, 9);
  ASSERT_TRUE(sim_.RunUntilComplete(lun_->WriteBlocks(64, data)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  auto read = sim_.RunUntilComplete(lun_->ReadBlocks(64, 32));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

}  // namespace
}  // namespace ros::frontend
