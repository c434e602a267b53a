// The closed-image stream (DESIGN.md §5l): every closed data image is
// serialized once, when it is sealed, and the parity sweep, the burn, the
// audit manifest and the checkpoint all use those same bytes; the sealed
// image's files are views into them, the disc sessions share them, a disc
// mount parses them in place, and tampering with one disc copies on write.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/olfs.h"
#include "src/sim/fault.h"
#include "src/sim/time.h"
#include "src/udf/serializer.h"

namespace ros::olfs {
namespace {

class StreamCacheTest : public ::testing::Test {
 protected:
  StreamCacheTest() {
    system_ = std::make_unique<RosSystem>(sim_, TestSystemConfig());
    StartOlfs(Params());
  }

  static OlfsParams Params() {
    OlfsParams params;
    params.disc_type = drive::DiscType::kBdr25;
    params.disc_capacity_override = 16 * kMiB;
    return params;
  }

  void StartOlfs(const OlfsParams& params) {
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = sim::Seconds(1);
  }

  static std::vector<std::uint8_t> Payload(int i) {
    std::vector<std::uint8_t> data(32 * kKiB);
    Rng rng(static_cast<std::uint64_t>(i) + 1);
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    return data;
  }

  ~StreamCacheTest() override { sim_.Shutdown(); }

  // Writes enough files to close several buckets, then burns them all as
  // one array (parity, burn and audit manifest).
  void IngestAndBurn() {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(sim_.RunUntilComplete(
                          olfs_->Create("/s/f" + std::to_string(i),
                                        Payload(i), 5 * kMiB))
                      .ok());
    }
    ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok())
        << olfs_->burns().fatal_error().ToString();
    ASSERT_EQ(olfs_->burns().arrays_burned(), 1);
  }

  std::vector<const ImageRecord*> DataImages() {
    std::vector<const ImageRecord*> out;
    for (const ImageRecord* record : olfs_->images().AllRecords()) {
      if (!record->parity) {
        out.push_back(record);
      }
    }
    return out;
  }

  const drive::Session& SessionOf(const ImageRecord& record) {
    drive::Disc* disc = olfs_->mech().DiscAt(*record.disc);
    auto session = disc->FindSession(record.id);
    ROS_CHECK(session.ok());
    return **session;
  }

  // Every burned data image: the stream its record's image is sealed on
  // is the very buffer its disc session holds.
  void ExpectDiscsShareTheStreams() {
    for (const ImageRecord* record : DataImages()) {
      ASSERT_TRUE(record->disc.has_value()) << record->id;
      ASSERT_NE(record->image, nullptr) << record->id;
      const drive::Session& session = SessionOf(*record);
      EXPECT_EQ(record->image->stream(), session.payload) << record->id;
      EXPECT_EQ(session.stored_bytes, session.payload->size()) << record->id;
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
};

TEST_F(StreamCacheTest, EachClosedImageIsSerializedOnce) {
  IngestAndBurn();
  const std::vector<const ImageRecord*> data = DataImages();
  ASSERT_GE(data.size(), 2u);
  EXPECT_GT(olfs_->audit().roots_built(), 0u);
  // Parity, burn and audit shared one materialization per image...
  EXPECT_EQ(olfs_->images().streams_materialized(), data.size());
  ExpectDiscsShareTheStreams();

  // ...and so does a checkpoint of the still-cached burned images.
  Maintenance maintenance(olfs_.get());
  ASSERT_TRUE(sim_.RunUntilComplete(maintenance.Checkpoint()).ok());
  EXPECT_EQ(olfs_->images().streams_materialized(), data.size());

  // The checkpoint copies are the canonical streams.
  for (const ImageRecord* record : data) {
    auto cached = olfs_->images().Stream(record->id);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(**cached, udf::Serializer::Serialize(*record->image));
  }
}

// The disk buffer is charged for every payload byte but stores none of
// them: the image and its stream hold the bytes, and nothing reads the
// buffer's copy back. A checkpoint is a real file, so it is stored, and
// restoring from it brings the buffered and burned files back.
TEST_F(StreamCacheTest, BufferVolumesStoreNoPayload) {
  IngestAndBurn();
  // Only the volumes' journaled metadata block is stored: one 64 KiB
  // chunk per member.
  ASSERT_GT(system_->hdd_count(), 0);
  for (int i = 0; i < system_->hdd_count(); ++i) {
    EXPECT_LE(system_->hdd(i).stored_bytes(), 64 * kKiB) << "hdd " << i;
    EXPECT_GT(system_->hdd(i).bytes_written(), 5 * kMiB) << "hdd " << i;
  }
  const std::vector<std::uint8_t> buffered(40 * kKiB, 0x5a);
  ASSERT_TRUE(sim_.RunUntilComplete(
                      olfs_->Create("/s/buffered", buffered, 3 * kMiB))
                  .ok());

  Maintenance before(olfs_.get());
  ASSERT_TRUE(sim_.RunUntilComplete(before.Checkpoint()).ok());
  std::uint64_t stored = 0;
  for (int i = 0; i < system_->hdd_count(); ++i) {
    stored += system_->hdd(i).stored_bytes();
  }
  EXPECT_GT(stored, system_->hdd_count() * 64 * kKiB);  // checkpoint files

  // A new controller over the same rack restores from the checkpoint.
  sim_.Shutdown();
  olfs_ = std::make_unique<Olfs>(sim_, system_.get(), Params());
  Maintenance after(olfs_.get());
  ASSERT_TRUE(sim_.RunUntilComplete(after.RestoreFromCheckpoint()).ok());
  auto read = sim_.RunUntilComplete(
      olfs_->Read("/s/buffered", 0, buffered.size()));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, buffered);
  for (int i = 0; i < 6; ++i) {
    const std::vector<std::uint8_t> expected = Payload(i);
    read = sim_.RunUntilComplete(
        olfs_->Read("/s/f" + std::to_string(i), 0, expected.size()));
    ASSERT_TRUE(read.ok()) << i << ": " << read.status().ToString();
    EXPECT_EQ(*read, expected) << i;
  }
}

// Sealing frees the tree's copy: an open bucket owns its payload, and
// once closed no buffered image, burned or not, owns a byte outside the
// stream it is sealed on.
TEST_F(StreamCacheTest, ClosedImagesOwnNoPayloadOutsideTheirStream) {
  IngestAndBurn();
  const std::vector<std::uint8_t> buffered(40 * kKiB, 0x5a);
  ASSERT_TRUE(sim_.RunUntilComplete(
                      olfs_->Create("/s/buffered", buffered, 3 * kMiB))
                  .ok());
  std::string open_id;
  for (const ImageRecord* record : DataImages()) {
    if (record->tier == ImageTier::kOpenBucket) {
      open_id = record->id;
      EXPECT_EQ(record->image->stream(), nullptr);
      EXPECT_GE(record->image->owned_payload_bytes(), buffered.size());
    }
  }
  ASSERT_FALSE(open_id.empty());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->buckets().CloseCurrentBucket())
                  .ok());
  auto closed = olfs_->images().Lookup(open_id);
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ((*closed)->tier, ImageTier::kBuffered);

  std::size_t checked = 0;
  for (const ImageRecord* record : DataImages()) {
    ASSERT_NE(record->image, nullptr) << record->id;
    ASSERT_NE(record->image->stream(), nullptr) << record->id;
    EXPECT_EQ(record->image->owned_payload_bytes(), 0u) << record->id;
    EXPECT_EQ(*record->image->stream(),
              udf::Serializer::Serialize(*record->image))
        << record->id;
    ++checked;
  }
  EXPECT_EQ(checked, olfs_->images().streams_materialized());
  auto read = sim_.RunUntilComplete(
      olfs_->Read("/s/buffered", 0, buffered.size()));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, buffered);
}

// Without a read cache every burned image leaves the buffer, so reads
// mount its disc: the mounted view is parsed in place, sealed on the
// session's payload, which is still the buffer the burn shared.
TEST_F(StreamCacheTest, DiscMountSharesTheSessionPayload) {
  sim_.Shutdown();
  OlfsParams params = Params();
  params.read_cache_bytes = 0;
  StartOlfs(params);
  IngestAndBurn();
  for (int i = 0; i < 6; ++i) {
    auto read = sim_.RunUntilComplete(
        olfs_->Read("/s/f" + std::to_string(i), 0, 32 * kKiB));
    ASSERT_TRUE(read.ok()) << i << ": " << read.status().ToString();
    EXPECT_EQ(*read, Payload(i)) << i;
  }
  std::size_t mounts = 0;
  for (const ImageRecord* record : DataImages()) {
    EXPECT_EQ(record->tier, ImageTier::kBurnedOnly) << record->id;
    const std::shared_ptr<const udf::Image> view =
        olfs_->reader().DiscMount(record->id);
    if (view == nullptr) {
      continue;
    }
    ++mounts;
    EXPECT_EQ(view->stream(), SessionOf(*record).payload) << record->id;
    EXPECT_EQ(view->owned_payload_bytes(), 0u) << record->id;
  }
  EXPECT_GT(mounts, 0u);
  EXPECT_EQ(olfs_->images().streams_materialized(), DataImages().size());
}

TEST_F(StreamCacheTest, ReburnOntoSpareMediaReusesTheStream) {
  sim::FaultInjector faults(/*seed=*/5);
  faults.FailNth(sim::FaultKind::kBurnFailure, /*site=*/"", /*nth=*/1);
  system_->InstallFaultInjector(&faults);

  IngestAndBurn();
  EXPECT_EQ(faults.injected(sim::FaultKind::kBurnFailure), 1u);
  EXPECT_EQ(olfs_->burns().arrays_reallocated(), 1);
  EXPECT_EQ(olfs_->images().streams_materialized(), DataImages().size());
  ExpectDiscsShareTheStreams();
}

TEST_F(StreamCacheTest, TamperCopiesOnWrite) {
  IngestAndBurn();
  const ImageRecord* victim = DataImages().front();
  auto held = olfs_->images().Stream(victim->id);
  ASSERT_TRUE(held.ok());
  const SharedBytes stream = *held;
  const std::vector<std::uint8_t> before = *stream;

  // A second disc holding the same payload, as after a re-burn.
  drive::Disc other("other", drive::DiscType::kBdr25);
  ASSERT_TRUE(other.AppendSession(victim->id, 16 * kMiB, stream, true).ok());

  drive::Disc* disc = olfs_->mech().DiscAt(*victim->disc);
  ASSERT_TRUE(disc->TamperSessionData(victim->id, 100, 0x40).ok());

  // The tampered disc reads the flip from its own copy...
  const drive::Session& session = SessionOf(*victim);
  EXPECT_NE(session.payload, stream);
  EXPECT_EQ(session.data()[100], before[100] ^ 0x40);
  // ...while the record's stream and the other disc keep the original.
  EXPECT_EQ(*stream, before);
  auto again = olfs_->images().Stream(victim->id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, stream);
  auto other_bytes = other.ReadSession(victim->id, 0, before.size());
  ASSERT_TRUE(other_bytes.ok());
  EXPECT_EQ(*other_bytes, before);
  EXPECT_EQ(olfs_->images().streams_materialized(), DataImages().size());
}

}  // namespace
}  // namespace ros::olfs
