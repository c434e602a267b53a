// Unit tests for delayed parity generation and stream recovery (§4.7).
#include "src/olfs/parity.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/gf256.h"
#include "src/disk/block_device.h"
#include "src/olfs/bucket_manager.h"
#include "src/sim/simulator.h"
#include "src/udf/serializer.h"

namespace ros::olfs {
namespace {

// The recover functions borrow their inputs as spans.
std::vector<ByteSpan> Views(
    const std::vector<std::vector<std::uint8_t>>& streams) {
  return {streams.begin(), streams.end()};
}

class ParityTest : public ::testing::Test {
 protected:
  ParityTest() {
    params_.disc_capacity_override = 4 * kMiB;
    for (int i = 0; i < 2; ++i) {
      devices_.push_back(std::make_unique<disk::StorageDevice>(
          sim_, "d" + std::to_string(i), 256 * kMiB, disk::SsdPerf()));
      volumes_.push_back(std::make_unique<disk::Volume>(
          sim_, devices_.back().get(),
          disk::VolumeParams{.journal_metadata = false}));
    }
    volume_ptrs_ = {volumes_[0].get(), volumes_[1].get()};
    builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  }

  // Registers a closed image with distinct content.
  std::string MakeImage(int n) {
    const std::string id = "img-" + std::to_string(n);
    auto image = std::make_shared<udf::Image>(id, 4 * kMiB);
    ROS_CHECK(image->AddFile("/data/f" + std::to_string(n),
                             std::vector<std::uint8_t>(100 + n * 13,
                                                       static_cast<std::uint8_t>(n)))
                  .ok());
    const std::string file = BucketManager::VolumeFileName(id);
    disk::Volume* volume = volume_ptrs_[n % 2];
    ROS_CHECK(sim_.RunUntilComplete(volume->Create(file)).ok());
    ROS_CHECK(sim_.RunUntilComplete(
                  volume->AppendSparse(file, {}, image->used_bytes())).ok());
    ROS_CHECK(images_.RegisterBucket(image, n % 2, file).ok());
    ROS_CHECK(images_.MarkClosed(id).ok());
    return id;
  }

  sim::Simulator sim_;
  OlfsParams params_;
  std::vector<std::unique_ptr<disk::StorageDevice>> devices_;
  std::vector<std::unique_ptr<disk::Volume>> volumes_;
  std::vector<disk::Volume*> volume_ptrs_;
  DiscImageStore images_;
  std::unique_ptr<ParityBuilder> builder_;
};

TEST_F(ParityTest, BuildProducesXorOfSerializedStreams) {
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(MakeImage(i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 1));
  ASSERT_TRUE(parities.ok());
  ASSERT_EQ(parities->size(), 1u);
  const ParityImage& p = (*parities)[0];
  EXPECT_EQ(p.member_ids, ids);
  // Build returns metadata; the single retained payload lives in the
  // builder and is served by Get().
  EXPECT_EQ(p.bytes, nullptr);
  auto retained = builder_->Get(p.id);
  ASSERT_TRUE(retained.ok());

  // Independently recompute the XOR.
  std::size_t max_len = 0;
  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
    max_len = std::max(max_len, streams.back().size());
  }
  std::vector<std::uint8_t> expected(max_len, 0);
  for (const auto& stream : streams) {
    gf256::XorAcc(expected, stream);
  }
  EXPECT_EQ(*(*retained)->bytes, expected);

  // The parity image is registered with DIM on the requested volume.
  auto record = images_.Lookup(p.id);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE((*record)->parity);
  EXPECT_EQ((*record)->volume_index, 1);
}

TEST_F(ParityTest, Raid6BuildsPAndQ) {
  params_.parity_images = 2;
  builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(MakeImage(10 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  ASSERT_EQ(parities->size(), 2u);
  EXPECT_TRUE((*parities)[0].id.ends_with("-P"));
  EXPECT_TRUE((*parities)[1].id.ends_with("-Q"));
  // The one parity-id decoder recognizes what Build mints, and only it.
  EXPECT_EQ(ParityIndexOf((*parities)[0].id), (*parities)[0].index);
  EXPECT_EQ(ParityIndexOf((*parities)[1].id), (*parities)[1].index);
  for (const std::string& id : ids) {
    EXPECT_EQ(ParityIndexOf(id), -1) << id;
  }
  EXPECT_EQ(ParityIndexOf("-P"), -1);
  auto p = builder_->Get((*parities)[0].id);
  auto q = builder_->Get((*parities)[1].id);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(q.ok());
  EXPECT_NE(*(*p)->bytes, *(*q)->bytes);

  // Q must be the classic sum of g^k * d_k even though it was produced by
  // the fused Horner sweep.
  std::size_t max_len = 0;
  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
    max_len = std::max(max_len, streams.back().size());
  }
  std::vector<std::uint8_t> expected_p(max_len, 0);
  std::vector<std::uint8_t> expected_q(max_len, 0);
  for (std::size_t k = 0; k < streams.size(); ++k) {
    gf256::XorAccScalar(expected_p, streams[k]);
    gf256::MulAccScalar(expected_q, gf256::Pow2(static_cast<unsigned>(k)),
                        streams[k]);
  }
  EXPECT_EQ(*(*p)->bytes, expected_p);
  EXPECT_EQ(*(*q)->bytes, expected_q);
}

TEST_F(ParityTest, BuildSweepsEachMemberOnceEvenForPQ) {
  params_.parity_images = 2;
  builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(MakeImage(60 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  // Single-pass pipeline: one fused kernel sweep per member stream, not one
  // per member per parity image.
  EXPECT_EQ(builder_->last_build_stream_passes(), 6);
}

TEST_F(ParityTest, Raid6DoubleLossRoundTripThroughFusedPath) {
  params_.parity_images = 2;
  builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(MakeImage(70 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  auto p = builder_->Get((*parities)[0].id);
  auto q = builder_->Get((*parities)[1].id);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(q.ok());

  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
  }
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      auto survivors = streams;
      std::vector<std::uint8_t> orig_a = survivors[a];
      std::vector<std::uint8_t> orig_b = survivors[b];
      survivors[a].clear();
      survivors[b].clear();
      auto recovered = ParityBuilder::RecoverTwo(
          Views(survivors), *(*p)->bytes, *(*q)->bytes, a, b);
      ASSERT_TRUE(recovered.ok()) << a << "," << b;
      EXPECT_TRUE(std::equal(orig_a.begin(), orig_a.end(),
                             recovered->first.begin()));
      EXPECT_TRUE(std::equal(orig_b.begin(), orig_b.end(),
                             recovered->second.begin()));
      // Both recovered streams must parse back to the lost images.
      auto parsed_a = udf::Serializer::Parse(recovered->first);
      auto parsed_b = udf::Serializer::Parse(recovered->second);
      ASSERT_TRUE(parsed_a.ok());
      ASSERT_TRUE(parsed_b.ok());
      EXPECT_EQ(parsed_a->id(), ids[a]);
      EXPECT_EQ(parsed_b->id(), ids[b]);
    }
  }
}

// When the P disc rots along with a data member, the Reed-Solomon Q
// parity alone still solves the single erasure.
TEST_F(ParityTest, RecoverOneFromQAloneWhenPIsUnreadable) {
  params_.parity_images = 2;
  builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(MakeImage(40 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  auto q = builder_->Get((*parities)[1].id);
  ASSERT_TRUE(q.ok());

  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
  }
  for (int missing = 0; missing < 5; ++missing) {
    auto survivors = streams;
    auto original = std::move(survivors[missing]);
    survivors[missing].clear();
    auto recovered =
        ParityBuilder::RecoverOneFromQ(Views(survivors), *(*q)->bytes,
                                       missing);
    ASSERT_TRUE(recovered.ok()) << "missing " << missing;
    ASSERT_GE(recovered->size(), original.size());
    EXPECT_TRUE(std::equal(original.begin(), original.end(),
                           recovered->begin()));
    auto parsed = udf::Serializer::Parse(*recovered);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->id(), ids[missing]);
  }
  // Guards mirror Recover(): occupied missing slot, double loss.
  auto survivors = streams;
  survivors[0].clear();
  EXPECT_FALSE(
      ParityBuilder::RecoverOneFromQ(Views(survivors), *(*q)->bytes, 1)
          .ok());
  survivors[1].clear();
  EXPECT_FALSE(
      ParityBuilder::RecoverOneFromQ(Views(survivors), *(*q)->bytes, 0)
          .ok());
}

TEST_F(ParityTest, RecoverReconstructsAnyMissingMember) {
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(MakeImage(20 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  auto p_image = builder_->Get((*parities)[0].id);
  ASSERT_TRUE(p_image.ok());

  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
  }

  for (int missing = 0; missing < 5; ++missing) {
    auto survivors = streams;
    auto original = std::move(survivors[missing]);
    survivors[missing].clear();
    auto recovered = ParityBuilder::Recover(
        Views(survivors), *(*p_image)->bytes, missing);
    ASSERT_TRUE(recovered.ok()) << "missing " << missing;
    // Zero-padded to the parity length; the prefix is the original.
    ASSERT_GE(recovered->size(), original.size());
    EXPECT_TRUE(std::equal(original.begin(), original.end(),
                           recovered->begin()));
    // And the recovered stream parses back to a valid image.
    auto parsed = udf::Serializer::Parse(*recovered);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->id(), ids[missing]);
  }
}

TEST_F(ParityTest, RecoverRejectsBadInputs) {
  std::vector<std::vector<std::uint8_t>> streams(3,
                                                 std::vector<std::uint8_t>{1});
  const std::vector<std::uint8_t> p{1};
  // No P stream (an empty one) cannot cover the survivors.
  EXPECT_FALSE(ParityBuilder::Recover(Views(streams), {}, 0).ok());
  EXPECT_FALSE(ParityBuilder::Recover(Views(streams), p, 7).ok());
  // Missing slot must be empty.
  EXPECT_FALSE(ParityBuilder::Recover(Views(streams), p, 1).ok());
  // A member stream longer than the P stream is a graceful error, not a
  // ROS_CHECK abort inside the XOR kernel.
  std::vector<std::vector<std::uint8_t>> long_member{{}, {1, 2, 3}, {1}};
  const std::vector<std::uint8_t> short_p{9};
  auto overlong = ParityBuilder::Recover(Views(long_member), short_p, 0);
  ASSERT_FALSE(overlong.ok());
  EXPECT_EQ(overlong.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParityTest, BuildRequiresBufferedImages) {
  const std::string id = MakeImage(30);
  ROS_CHECK(images_.MarkBurned(id, mech::DiscAddress{}).ok());
  ROS_CHECK(images_.DropFromBuffer(id).ok());
  auto parities = sim_.RunUntilComplete(
      builder_->Build({id}, volume_ptrs_, 0));
  EXPECT_FALSE(parities.ok());
}

TEST_F(ParityTest, ParityIdsUniqueAcrossGenerations) {
  auto a = sim_.RunUntilComplete(
      builder_->Build({MakeImage(40)}, volume_ptrs_, 0));
  auto b = sim_.RunUntilComplete(
      builder_->Build({MakeImage(41)}, volume_ptrs_, 0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)[0].id, (*b)[0].id);
}

}  // namespace
}  // namespace ros::olfs
