#include "src/drive/optical_drive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/drive/disc.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::drive {
namespace {

using sim::Seconds;
using sim::ToSeconds;

std::unique_ptr<Disc> BlankDisc(DiscType type, const std::string& id = "d") {
  return std::make_unique<Disc>(id, type);
}

std::unique_ptr<Disc> BurnedDisc(const std::string& image,
                                 std::vector<std::uint8_t> data,
                                 std::uint64_t logical) {
  auto disc = BlankDisc(DiscType::kBdr25);
  ROS_CHECK(disc->AppendSession(image, logical,
                                MakeSharedBytes(std::move(data)), true)
                .ok());
  return disc;
}

// The hand-rolled sequence ReadImageStream replaces: mount, then charge
// the whole stored stream (one byte for an empty one).
sim::Task<Status> MountThenRead(OpticalDrive* drive, std::string image,
                                std::uint64_t stored) {
  ROS_CO_RETURN_IF_ERROR(co_await drive->MountVfs());
  auto bytes = co_await drive->Read(std::move(image), 0,
                                    std::max<std::uint64_t>(1, stored));
  co_return bytes.status();
}

std::vector<std::uint8_t> Bytes(const StreamView& view) {
  return {view.bytes.begin(), view.bytes.end()};
}

class OpticalDriveTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  std::unique_ptr<Disc> disc_;
};

TEST_F(OpticalDriveTest, InsertEjectLifecycle) {
  OpticalDrive drive(sim_, nullptr, 0);
  EXPECT_EQ(drive.state(), DriveState::kEmpty);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  EXPECT_EQ(drive.state(), DriveState::kSleeping);
  auto second = BlankDisc(DiscType::kBdr25);
  EXPECT_EQ(drive.InsertDisc(second.get()).code(),
            StatusCode::kFailedPrecondition);
  auto out = drive.EjectDisc();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(drive.state(), DriveState::kEmpty);
  EXPECT_EQ(drive.EjectDisc().status().code(), StatusCode::kFailedPrecondition);
}

// §5.4: waking a sleeping drive costs ~2 s; VFS mount costs ~220 ms.
TEST_F(OpticalDriveTest, WakeAndMountDelays) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BurnedDisc("img", {1, 2, 3}, kMB);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.EnsureAwake()).ok());
  EXPECT_EQ(sim_.now() - t0, Seconds(2.0));
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.MountVfs()).ok());
  EXPECT_EQ(sim_.now() - t0, sim::Millis(220));
  // Idempotent once mounted.
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.MountVfs()).ok());
  EXPECT_EQ(sim_.now(), t0);
  // Sleeping drops the mount.
  drive.Sleep();
  EXPECT_EQ(drive.state(), DriveState::kSleeping);
  EXPECT_FALSE(drive.vfs_mounted());
}

TEST_F(OpticalDriveTest, ReadReturnsBurnedBytes) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BurnedDisc("img", {5, 6, 7, 8}, kMB);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  auto data = sim_.RunUntilComplete(drive.Read("img", 1, 3));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, (std::vector<std::uint8_t>{6, 7, 8}));
  EXPECT_EQ(drive.bytes_read(), 3u);
}

TEST_F(OpticalDriveTest, ReadImageStreamReturnsTheStoredStream) {
  OpticalDrive drive(sim_, nullptr, 0);
  // Sparse session: the stored stream is shorter than the logical size.
  auto disc = BurnedDisc("img", {9, 8, 7, 6, 5}, kMB);
  ASSERT_TRUE(disc->AppendSession("empty", kMB, {}, true).ok());
  disc_ = std::move(disc);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  auto stream = sim_.RunUntilComplete(drive.ReadImageStream("img"));
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(Bytes(*stream), (std::vector<std::uint8_t>{9, 8, 7, 6, 5}));
  EXPECT_EQ(drive.bytes_read(), 5u);
  // The view is the session's stored bytes, owned by its payload: no copy.
  const Session* session = *disc_->FindSession("img");
  EXPECT_EQ(stream->owner, session->payload);
  EXPECT_EQ(stream->bytes.data(), session->data().data());
  // An empty stored stream comes back empty but still charges one byte.
  stream = sim_.RunUntilComplete(drive.ReadImageStream("empty"));
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(stream->bytes.empty());
  EXPECT_EQ(stream->owner, nullptr);
  EXPECT_EQ(drive.bytes_read(), 6u);
}

// Same sim time and drive telemetry as mounting and reading by hand, from
// a sleeping drive, an awake one without a VFS mount, and a mounted one
// whose head must seek back to the stream start.
TEST_F(OpticalDriveTest, ReadImageStreamChargesLikeMountThenRead) {
  for (const std::vector<std::uint8_t>& stored :
       {std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6},
        std::vector<std::uint8_t>{}}) {
    auto disc_a = BurnedDisc("img", stored, 3 * kMB);
    auto disc_b = BurnedDisc("img", stored, 3 * kMB);
    OpticalDrive a(sim_, nullptr, 0);
    OpticalDrive b(sim_, nullptr, 1);
    ASSERT_TRUE(a.InsertDisc(disc_a.get()).ok());
    ASSERT_TRUE(b.InsertDisc(disc_b.get()).ok());
    for (int step = 0; step < 3; ++step) {
      if (step == 1) {
        a.InvalidateVfs();
        b.InvalidateVfs();
      }
      sim::TimePoint t0 = sim_.now();
      auto stream = sim_.RunUntilComplete(a.ReadImageStream("img"));
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      EXPECT_EQ(Bytes(*stream), stored);
      const sim::Duration one_call = sim_.now() - t0;
      t0 = sim_.now();
      ASSERT_TRUE(
          sim_.RunUntilComplete(MountThenRead(&b, "img", stored.size()))
              .ok());
      EXPECT_EQ(one_call, sim_.now() - t0) << "step " << step;
      EXPECT_EQ(a.bytes_read(), b.bytes_read()) << "step " << step;
      EXPECT_EQ(a.busy_time(), b.busy_time()) << "step " << step;
      if (step == 0) {
        EXPECT_GT(one_call, Seconds(2.0));  // paid the wake
      }
    }
  }
}

TEST_F(OpticalDriveTest, ReadImageStreamErrors) {
  OpticalDrive drive(sim_, nullptr, 0);
  EXPECT_EQ(sim_.RunUntilComplete(drive.ReadImageStream("img"))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  disc_ = BurnedDisc("img", {1, 2, 3, 4}, kMB);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  // An absent image is reported after the wake + VFS mount are charged.
  sim::TimePoint t0 = sim_.now();
  EXPECT_EQ(sim_.RunUntilComplete(drive.ReadImageStream("other"))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sim_.now() - t0, Seconds(2.0) + sim::Millis(220));
  EXPECT_TRUE(drive.vfs_mounted());
  EXPECT_EQ(drive.bytes_read(), 0u);

  disc_->CorruptSector(0);
  EXPECT_EQ(sim_.RunUntilComplete(drive.ReadImageStream("img"))
                .status()
                .code(),
            StatusCode::kDataLoss);
}

// Two sparse sessions, "a" then "b", with the same stored prefix.
std::unique_ptr<Disc> TwoSessionDisc() {
  auto disc = BlankDisc(DiscType::kBdr25);
  std::vector<std::uint8_t> stored(64 * kKiB);
  for (std::size_t i = 0; i < stored.size(); ++i) {
    stored[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  ROS_CHECK(disc->AppendSession("a", 10 * kMB, MakeSharedBytes(stored), true)
                .ok());
  ROS_CHECK(disc->AppendSession("b", 10 * kMB, MakeSharedBytes(stored), true)
                .ok());
  return disc;
}

// ChargeRead is Read without the copy: twin drives over twin discs, each
// on its own clock, take the same reads (sequential runs, seeks, file
// switches, out-of-range and absent images), one through Read and one
// through ChargeRead, and must agree on every duration, status, counter
// and corrupted sector. The faulty pass adds injected latent sector
// errors and fast media aging; the clean pass a corrupted sector.
TEST_F(OpticalDriveTest, ChargeReadChargesExactlyLikeRead) {
  struct Op {
    std::string image;
    std::uint64_t offset;
    std::uint64_t length;
  };
  const std::vector<Op> ops = {
      {"a", 0, kMB},        {"a", kMB, kMB},      {"a", 5 * kMB, 100},
      {"b", 0, kMB},        {"b", kMB, 32 * kKiB}, {"a", 0, 64 * kKiB},
      {"a", 9 * kMB, 2 * kMB}, {"zz", 0, 1},       {"b", 2 * kMB, kMB}};
  for (const bool faulty : {false, true}) {
    sim::Simulator clock_b;
    auto disc_a = TwoSessionDisc();
    auto disc_b = TwoSessionDisc();
    OpticalDrive a(sim_, nullptr, 0);
    OpticalDrive b(clock_b, nullptr, 0);
    ASSERT_TRUE(a.InsertDisc(disc_a.get()).ok());
    ASSERT_TRUE(b.InsertDisc(disc_b.get()).ok());
    sim::FaultInjector faults_a(/*seed=*/9);
    sim::FaultInjector faults_b(/*seed=*/9);
    MediaAgingParams aging;
    aging.enabled = true;
    aging.lse_per_sector_year = 1e-3;
    aging.read_fault_per_year = 1e6;
    aging.epoch_ns = Seconds(1);
    if (faulty) {
      for (sim::FaultInjector* faults : {&faults_a, &faults_b}) {
        faults->SetRate(sim::FaultKind::kLatentSectorError, 0.1);
      }
      a.set_fault_injector(&faults_a);
      b.set_fault_injector(&faults_b);
      a.set_aging_model(&aging);
      b.set_aging_model(&aging);
      disc_a->StampBirth(sim_.now());
      disc_b->StampBirth(clock_b.now());
    }
    int data_loss = 0;
    for (int round = 0; round < 4; ++round) {
      if (!faulty && round == 2) {
        disc_a->CorruptSector(2 * kMB / kSectorSize);
        disc_b->CorruptSector(2 * kMB / kSectorSize);
      }
      for (const Op& op : ops) {
        const std::string where = (faulty ? "faulty round " : "round ") +
                                  std::to_string(round) + " " + op.image +
                                  "@" + std::to_string(op.offset);
        const sim::TimePoint start_a = sim_.now();
        const sim::TimePoint start_b = clock_b.now();
        auto read = sim_.RunUntilComplete(
            a.Read(op.image, op.offset, op.length));
        const Status charged = clock_b.RunUntilComplete(
            b.ChargeRead(op.image, op.offset, op.length));
        EXPECT_EQ(read.status().code(), charged.code()) << where;
        EXPECT_EQ(sim_.now() - start_a, clock_b.now() - start_b) << where;
        EXPECT_EQ(a.bytes_read(), b.bytes_read()) << where;
        EXPECT_EQ(a.busy_time(), b.busy_time()) << where;
        EXPECT_EQ(disc_a->ScrubForErrors(), disc_b->ScrubForErrors())
            << where;
        if (read.ok()) {
          EXPECT_EQ(read->size(), op.length) << where;
        }
        data_loss += charged.code() == StatusCode::kDataLoss;
      }
    }
    EXPECT_GT(data_loss, 0) << (faulty ? "faulty" : "clean");
    // The whole-stream read agrees with mounting and reading the stored
    // stream by hand, faults and rot included.
    for (const char* image : {"a", "b"}) {
      const sim::TimePoint start_a = sim_.now();
      const sim::TimePoint start_b = clock_b.now();
      auto stream = sim_.RunUntilComplete(a.ReadImageStream(image));
      const Status by_hand =
          clock_b.RunUntilComplete(MountThenRead(&b, image, 64 * kKiB));
      EXPECT_EQ(stream.status().code(), by_hand.code()) << image;
      if (stream.ok()) {
        EXPECT_EQ(stream->bytes.size(), 64 * kKiB) << image;
      }
      EXPECT_EQ(sim_.now() - start_a, clock_b.now() - start_b) << image;
      EXPECT_EQ(a.bytes_read(), b.bytes_read()) << image;
    }
  }
}

// Sequential continuation does not seek; switching files does.
TEST_F(OpticalDriveTest, SeekChargedOnlyOnHeadMovement) {
  OpticalDrive drive(sim_, nullptr, 0);
  auto disc = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(disc->AppendSession("a", 10 * kMB, {}, true).ok());
  ASSERT_TRUE(disc->AppendSession("b", 10 * kMB, {}, true).ok());
  disc_ = std::move(disc);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(drive.MountVfs()).ok());

  // First read after mount: no seek (head parked at lead-in).
  sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.Read("a", 0, kMB)).ok());
  sim::Duration first = sim_.now() - t0;

  // Sequential continuation: same transfer time, still no seek.
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.Read("a", kMB, kMB)).ok());
  EXPECT_EQ(sim_.now() - t0, first);

  // File switch: one 100 ms seek on top.
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.Read("b", 0, kMB)).ok());
  EXPECT_EQ(sim_.now() - t0, first + sim::Millis(100));
}

// Burning a full 25 GB disc takes ~675 s (Fig 8) on a standalone drive.
TEST_F(OpticalDriveTest, Burn25GbMatchesFigure8) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  sim::TimePoint t0 = sim_.now();
  auto result = sim_.RunUntilComplete(
      drive.BurnImage("img", 25 * kGB,
                      MakeSharedBytes(std::vector<std::uint8_t>(64, 1))));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  EXPECT_EQ(result->bytes_burned, 25 * kGB);
  // Includes the 2 s wake.
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 675.0 + 2.0, 12.0);
  EXPECT_TRUE(drive.disc()->FindSession("img").ok());
}

// Burning a full 100 GB disc takes ~3757 s (Fig 10).
TEST_F(OpticalDriveTest, Burn100GbMatchesFigure10) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr100);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  sim::TimePoint t0 = sim_.now();
  auto result =
      sim_.RunUntilComplete(drive.BurnImage("img", 100 * kGB, {}));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 3757.0 + 2.0, 45.0);
}

TEST_F(OpticalDriveTest, BurnObserverSeesRampUp) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  std::vector<double> speeds;
  drive.burn_observer = [&](double, double speed_x) {
    speeds.push_back(speed_x);
  };
  ASSERT_TRUE(sim_.RunUntilComplete(drive.BurnImage("img", 25 * kGB, {})).ok());
  ASSERT_FALSE(speeds.empty());
  EXPECT_DOUBLE_EQ(speeds.front(), 1.6);
  EXPECT_DOUBLE_EQ(speeds.back(), 12.0);
}

TEST_F(OpticalDriveTest, WormDiscRejectsSecondImageBeyondCapacity) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(drive.BurnImage("a", 20 * kGB, {})).ok());
  auto result = sim_.RunUntilComplete(drive.BurnImage("b", 10 * kGB, {}));
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// §4.8's interrupt-and-resume policy: an in-flight append-mode burn stops
// at a chunk boundary, leaves an open session, and resumes later.
TEST_F(OpticalDriveTest, InterruptAndResumeAppendBurn) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());

  // Interrupt roughly mid-burn.
  const SharedBytes payload =
      MakeSharedBytes(std::vector<std::uint8_t>(100, 3));
  sim_.ScheduleAfter(Seconds(300), [&] { drive.RequestInterrupt(); });
  auto result = sim_.RunUntilComplete(drive.BurnImage(
      "img", 20 * kGB, payload, {.close_session = true, .append_mode = true}));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->completed);
  EXPECT_GT(result->bytes_burned, 0u);
  EXPECT_LT(result->bytes_burned, 20 * kGB);
  EXPECT_FALSE(drive.disc()->sessions().back().closed);
  // The open session shares the burn's payload rather than copying it.
  EXPECT_EQ(drive.disc()->sessions().back().payload, payload);

  // Resume: completes the remaining bytes and closes the session.
  auto resumed = sim_.RunUntilComplete(drive.BurnImage(
      "img", 20 * kGB, payload, {.close_session = true, .append_mode = true}));
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->completed);
  EXPECT_EQ(resumed->bytes_burned, 20 * kGB);
  EXPECT_TRUE(drive.disc()->sessions().back().closed);
  EXPECT_EQ(drive.disc()->sessions().back().payload, payload);
  EXPECT_EQ(drive.disc()->sessions().back().stored_bytes, 100u);
  // The metadata zone reserved by append mode consumed capacity.
  EXPECT_EQ(drive.disc()->burned_bytes(), 20 * kGB + kMetadataZoneBytes);
}

// Table 2: aggregate read speed of 12 drives is slightly below 12x single
// (282.5 MB/s for 25 GB media, 210.2 MB/s for 100 GB media).
TEST_F(OpticalDriveTest, AggregateReadSpeedMatchesTable2) {
  for (auto [type, expected_mb] :
       {std::pair{DiscType::kBdr25, 282.5},
        std::pair{DiscType::kBdr100, 210.2}}) {
    sim::Simulator sim;
    DriveSet set(sim, 0);
    std::vector<std::unique_ptr<Disc>> owned;
    const std::uint64_t bytes = 64 * kMB;
    for (int i = 0; i < set.size(); ++i) {
      auto disc = BlankDisc(type, "d" + std::to_string(i));
      ASSERT_TRUE(disc->AppendSession("img", bytes, {}, true).ok());
      owned.push_back(std::move(disc));
      ASSERT_TRUE(set.drive(i).InsertDisc(owned.back().get()).ok());
      // Pre-wake so the measurement covers pure transfer.
      ASSERT_TRUE(sim.RunUntilComplete(set.drive(i).MountVfs()).ok());
    }
    sim::TimePoint t0 = sim.now();
    for (int i = 0; i < set.size(); ++i) {
      sim.Spawn([](OpticalDrive* d, std::uint64_t n) -> sim::Task<void> {
        auto r = co_await d->Read("img", 0, n);
        ROS_CHECK(r.ok());
      }(&set.drive(i), bytes));
    }
    sim.Run();
    double seconds = ToSeconds(sim.now() - t0);
    double aggregate_mb = 12.0 * BytesToMB(bytes) / seconds;
    EXPECT_NEAR(aggregate_mb, expected_mb, expected_mb * 0.01)
        << "media type " << static_cast<int>(type);
  }
}

}  // namespace
}  // namespace ros::drive
