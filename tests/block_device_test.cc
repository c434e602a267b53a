#include "src/disk/block_device.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::disk {
namespace {

using sim::ToSeconds;

class BlockDeviceTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
};

TEST_F(BlockDeviceTest, WriteReadRoundTrip) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  std::vector<std::uint8_t> data{10, 20, 30, 40};
  ASSERT_TRUE(sim_.RunUntilComplete(device.Write(1000, data)).ok());
  auto read = sim_.RunUntilComplete(device.Read(1000, 4));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(BlockDeviceTest, UnwrittenRangesReadZero) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  auto read = sim_.RunUntilComplete(device.Read(12345, 8));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::vector<std::uint8_t>(8, 0));
}

TEST_F(BlockDeviceTest, CrossChunkBoundaryWrite) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  // 64 KiB chunks internally; write straddling a boundary.
  const std::uint64_t boundary = 64 * kKiB;
  std::vector<std::uint8_t> data(100, 0xEE);
  ASSERT_TRUE(sim_.RunUntilComplete(device.Write(boundary - 50, data)).ok());
  auto read = sim_.RunUntilComplete(device.Read(boundary - 50, 100));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(BlockDeviceTest, OutOfRangeRejected) {
  StorageDevice device(sim_, "hdd0", kMiB, HddPerf());
  EXPECT_EQ(sim_.RunUntilComplete(
                device.Write(kMiB - 1, std::vector<std::uint8_t>(2)))
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(sim_.RunUntilComplete(device.Read(kMiB, 1)).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(BlockDeviceTest, TransferTimeMatchesPerfModel) {
  StorageDevice device(sim_, "hdd0", 10 * kGiB, HddPerf());
  // 200 MB at 200 MB/s + 8 ms latency = 1.008 s.
  sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(
                  device.Write(0, std::vector<std::uint8_t>(200 * kMB)))
                  .ok());
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 1.008, 1e-6);
}

TEST_F(BlockDeviceTest, ConcurrentRequestsSerialize) {
  StorageDevice device(sim_, "hdd0", 10 * kGiB, HddPerf());
  sim::TimePoint t0 = sim_.now();
  for (int i = 0; i < 4; ++i) {
    sim_.Spawn([](StorageDevice* d, int idx) -> sim::Task<void> {
      Status s = co_await d->Write(idx * kMB,
                                   std::vector<std::uint8_t>(100 * kMB));
      ROS_CHECK(s.ok());
    }(&device, i));
  }
  sim_.Run();
  // 4 x (0.5 s + 8 ms), strictly serialized on the single spindle.
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 4 * 0.508, 1e-6);
}

TEST_F(BlockDeviceTest, FailedDeviceRejectsIo) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  device.Fail();
  EXPECT_EQ(sim_.RunUntilComplete(
                device.Write(0, std::vector<std::uint8_t>(10)))
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(sim_.RunUntilComplete(device.Read(0, 10)).status().code(),
            StatusCode::kUnavailable);
  device.Replace();
  EXPECT_TRUE(sim_.RunUntilComplete(
                  device.Write(0, std::vector<std::uint8_t>(10)))
                  .ok());
}

TEST_F(BlockDeviceTest, ReplaceClearsContents) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  device.Write(0, std::vector<std::uint8_t>{1, 2, 3}))
                  .ok());
  device.Fail();
  device.Replace();
  auto read = sim_.RunUntilComplete(device.Read(0, 3));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::vector<std::uint8_t>(3, 0));
}

TEST_F(BlockDeviceTest, VectoredIoChargesOneLatency) {
  StorageDevice device(sim_, "hdd0", 10 * kGiB, HddPerf());
  const std::vector<std::uint8_t> ones(10 * kMB, 1);
  std::vector<StorageDevice::Extent> extents;
  for (int i = 0; i < 10; ++i) {
    extents.push_back(
        {static_cast<std::uint64_t>(i) * 10 * kMB, ones.size(), ones.data()});
  }
  sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(device.WriteExtents(extents)).ok());
  // 100 MB at 200 MB/s + one 8 ms latency = 0.508 s.
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 0.508, 1e-6);

  std::vector<StorageDevice::Segment> reads;
  reads.push_back({0, std::vector<std::uint8_t>(4)});
  reads.push_back({10 * kMB, std::vector<std::uint8_t>(4)});
  ASSERT_TRUE(sim_.RunUntilComplete(device.ReadMulti(&reads)).ok());
  EXPECT_EQ(reads[0].data, std::vector<std::uint8_t>(4, 1));
  EXPECT_EQ(reads[1].data, std::vector<std::uint8_t>(4, 1));
}

TEST_F(BlockDeviceTest, TrafficCountersAccumulate) {
  StorageDevice device(sim_, "ssd0", kGiB, SsdPerf());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  device.Write(0, std::vector<std::uint8_t>(1000)))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(device.Read(0, 400)).ok());
  EXPECT_EQ(device.bytes_written(), 1000u);
  EXPECT_EQ(device.bytes_read(), 400u);
}

}  // namespace
}  // namespace ros::disk
