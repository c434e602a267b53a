// Tests of the RAID controller write-back cache, the sparse/discard I/O
// paths (the timing machinery behind PB-scale experiments) and the
// charge-only write.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/disk/raid.h"
#include "src/disk/volume.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::disk {
namespace {

using sim::Seconds;
using sim::ToMillis;
using sim::ToSeconds;

// `n` seeded bytes, eight per draw.
std::vector<std::uint8_t> SeededBytes(std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint64_t i = 0; i < n; i += 8) {
    const std::uint64_t word = rng.Next();
    std::memcpy(out.data() + i, &word, std::min<std::uint64_t>(8, n - i));
  }
  return out;
}

struct Rig {
  explicit Rig(int n = 7, std::uint64_t cap = 2 * kGiB,
               RaidLevel level = RaidLevel::kRaid5) {
    for (int i = 0; i < n; ++i) {
      devices.push_back(std::make_unique<StorageDevice>(
          sim, "hdd" + std::to_string(i), cap, HddPerf()));
    }
    std::vector<StorageDevice*> ptrs;
    for (auto& d : devices) {
      ptrs.push_back(d.get());
    }
    volume = std::make_unique<RaidVolume>(sim, level, ptrs);
  }

  // Destroy suspended background coroutines (destage writes) while the
  // devices they borrow are still alive.
  ~Rig() { sim.Shutdown(); }

  sim::Simulator sim;
  std::vector<std::unique_ptr<StorageDevice>> devices;
  std::unique_ptr<RaidVolume> volume;
};

TEST(RaidCache, SmallWriteAcksAtControllerSpeed) {
  Rig rig;
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(rig.volume->Write(
                      0, std::vector<std::uint8_t>(4 * kKiB, 1)))
                  .ok());
  // Millisecond-scale ack, not an 8 ms-per-spindle read-modify-write.
  EXPECT_LT(ToMillis(rig.sim.now() - t0), 1.0);
  EXPECT_GT(rig.volume->dirty_bytes(), 0u);
  rig.sim.Run();  // destage drains
  EXPECT_EQ(rig.volume->dirty_bytes(), 0u);
}

TEST(RaidCache, CachedDataIsReadableImmediately) {
  Rig rig;
  std::vector<std::uint8_t> data{9, 8, 7, 6};
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(1000, data)).ok());
  // Before destaging completes, reads must already see the bytes.
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(1000, 4));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(RaidCache, RecentWritesReadBackAtCacheSpeed) {
  Rig rig;
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(rig.volume->Write(
                      0, std::vector<std::uint8_t>(64 * kKiB, 2)))
                  .ok());
  rig.sim.Run();
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Read(0, 64 * kKiB)).ok());
  EXPECT_LT(ToMillis(rig.sim.now() - t0), 1.0);  // controller cache hit
}

TEST(RaidCache, DirtyLimitThrottlesToSpindleRate) {
  Rig rig;
  // Push well past the dirty limit; sustained rate converges to the
  // destage (spindle) rate, not the controller ack rate.
  const std::uint64_t total = 2 * RaidVolume::kCacheDirtyLimit;
  sim::TimePoint t0 = rig.sim.now();
  for (std::uint64_t done = 0; done < total; done += 8 * kMiB) {
    ASSERT_TRUE(rig.sim
                    .RunUntilComplete(rig.volume->Write(
                        done, std::vector<std::uint8_t>(8 * kMiB, 3)))
                    .ok());
  }
  const double rate =
      static_cast<double>(total) / ToSeconds(rig.sim.now() - t0);
  EXPECT_LT(rate, 1.6e9);  // way below the 2.5 GB/s controller rate
  EXPECT_GT(rate, 0.6e9);  // but still near the volume's spindle rate
}

TEST(RaidCache, DisabledCacheTakesSynchronousPath) {
  Rig rig;
  rig.volume->set_write_cache(false);
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(rig.volume->Write(
                      0, std::vector<std::uint8_t>(4 * kKiB, 1)))
                  .ok());
  // Full read-modify-write against the spindles: tens of ms.
  EXPECT_GT(ToMillis(rig.sim.now() - t0), 8.0);
  EXPECT_EQ(rig.volume->dirty_bytes(), 0u);
}

TEST(RaidCache, DegradedVolumeBypassesCache) {
  Rig rig;
  rig.devices[0]->Fail();
  std::vector<std::uint8_t> data(4 * kKiB, 5);
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(0, data)).ok());
  EXPECT_EQ(rig.volume->dirty_bytes(), 0u);  // synchronous path used
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(0, 4 * kKiB));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(RaidCache, CachedWritesSurviveDeviceFailureAfterDestage) {
  Rig rig;
  Rng rng(5);
  std::vector<std::uint8_t> data(256 * kKiB);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(0, data)).ok());
  rig.sim.Run();  // destage everything
  rig.devices[3]->Fail();
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(0, data.size()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);  // parity was written through the cache path too
}

// --- sparse/discard paths ---

TEST(SparseIo, AppendSparseChargesFullTimeStoresLittle) {
  Rig rig;
  Volume volume(rig.sim, rig.volume.get(),
                VolumeParams{.journal_metadata = false});
  ASSERT_TRUE(rig.sim.RunUntilComplete(volume.Create("/big")).ok());
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(volume.AppendSparse(
                      "/big", std::vector<std::uint8_t>{1, 2, 3}, 600 * kMB))
                  .ok());
  // 600 MB at ~1 GB/s: hundreds of ms of simulated time...
  EXPECT_GT(ToSeconds(rig.sim.now() - t0), 0.4);
  // ...while the devices stored almost nothing.
  EXPECT_EQ(*volume.FileSize("/big"), 600 * kMB);
  auto head = rig.sim.RunUntilComplete(volume.Read("/big", 0, 3));
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, (std::vector<std::uint8_t>{1, 2, 3}));
  auto tail = rig.sim.RunUntilComplete(volume.Read("/big", 600 * kMB - 4, 4));
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, std::vector<std::uint8_t>(4, 0));
}

// The bucket writer's charge: ChargeAppend over a journaled buffer
// volume costs exactly what AppendSparse of real bytes does, file by
// file, including files that span extents freed by a delete.
TEST(SparseIo, ChargeAppendChargesLikeAppendSparse) {
  Rig stored;
  Rig charged;
  Volume stored_volume(stored.sim, stored.volume.get());
  Volume charged_volume(charged.sim, charged.volume.get());
  Rng rng(11);
  for (int op = 0; op < 24; ++op) {
    const std::string name = "/img-" + std::to_string(op % 6);
    const std::uint64_t real = op % 5 == 0 ? 0 : rng.Between(1, 3 * kMiB);
    const std::uint64_t logical = real + rng.Below(2 * kMiB);
    for (auto [rig, volume] : {std::pair{&stored, &stored_volume},
                               std::pair{&charged, &charged_volume}}) {
      if (op % 6 == 0 && volume->Exists(name)) {
        ASSERT_TRUE(rig->sim.RunUntilComplete(volume->Delete(name)).ok());
      }
      if (!volume->Exists(name)) {
        ASSERT_TRUE(rig->sim.RunUntilComplete(volume->Create(name)).ok());
      }
    }
    ASSERT_TRUE(stored.sim
                    .RunUntilComplete(stored_volume.AppendSparse(
                        name, SeededBytes(real, op), logical))
                    .ok());
    ASSERT_TRUE(charged.sim
                    .RunUntilComplete(
                        charged_volume.ChargeAppend(name, real, logical))
                    .ok());
    EXPECT_EQ(stored.sim.now(), charged.sim.now()) << op;
    EXPECT_EQ(*stored_volume.FileSize(name), *charged_volume.FileSize(name));
    EXPECT_EQ(stored_volume.used_blocks(), charged_volume.used_blocks());
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(stored.devices[i]->bytes_written(),
                charged.devices[i]->bytes_written())
          << op;
      EXPECT_EQ(stored.devices[i]->busy_time(),
                charged.devices[i]->busy_time())
          << op;
    }
  }
  stored.sim.Run();
  charged.sim.Run();
  EXPECT_EQ(stored.sim.now(), charged.sim.now());
}

TEST(SparseIo, ReadDiscardMatchesRealReadTiming) {
  Rig rig;
  Volume volume(rig.sim, rig.volume.get(),
                VolumeParams{.journal_metadata = false});
  ASSERT_TRUE(rig.sim.RunUntilComplete(volume.Create("/f")).ok());
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(volume.AppendSparse("/f", {}, 200 * kMB))
                  .ok());
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim.RunUntilComplete(
                  volume.ReadDiscard("/f", 0, 200 * kMB)).ok());
  const double discard_seconds = ToSeconds(rig.sim.now() - t0);
  // ~200 MB at ~1.2 GB/s.
  EXPECT_NEAR(discard_seconds, 0.2 / 1.2, 0.05);
}

TEST(SparseIo, SequentialDiscardStreamsWithoutSeekStorms) {
  Rig rig;
  Volume volume(rig.sim, rig.volume.get(),
                VolumeParams{.journal_metadata = false});
  ASSERT_TRUE(rig.sim.RunUntilComplete(volume.Create("/s")).ok());
  // 128 sequential 1 MB sparse appends ~ one smooth 128 MB stream.
  sim::TimePoint t0 = rig.sim.now();
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(rig.sim
                    .RunUntilComplete(volume.AppendSparse("/s", {}, 1 * kMB))
                    .ok());
  }
  const double rate = 128e6 / ToSeconds(rig.sim.now() - t0);
  EXPECT_GT(rate, 0.8e9);  // no per-append positioning penalty
}

// ---------------------------------------------------------------------------
// ChargeWrite against Write: twin rigs take the same seeded writes, one
// storing them and one only charging them, and must agree on every
// timing and counter while the charged twin keeps its earlier bytes.

struct ChargeCase {
  RaidLevel level;
  int devices;
  bool write_cache;
  bool degraded;
};

// Everything a charge must reproduce, at one instant.
void ExpectSameCharge(const Rig& stored, const Rig& charged,
                      const std::string& where) {
  EXPECT_EQ(stored.sim.now(), charged.sim.now()) << where;
  EXPECT_EQ(stored.volume->dirty_bytes(), charged.volume->dirty_bytes())
      << where;
  EXPECT_EQ(stored.volume->bytes_written(), charged.volume->bytes_written())
      << where;
  EXPECT_EQ(stored.volume->bytes_read(), charged.volume->bytes_read())
      << where;
  for (std::size_t i = 0; i < stored.devices.size(); ++i) {
    EXPECT_EQ(stored.devices[i]->bytes_written(),
              charged.devices[i]->bytes_written())
        << where << " device " << i;
    EXPECT_EQ(stored.devices[i]->bytes_read(),
              charged.devices[i]->bytes_read())
        << where << " device " << i;
    EXPECT_EQ(stored.devices[i]->busy_time(), charged.devices[i]->busy_time())
        << where << " device " << i;
  }
}

class ChargeWriteTest : public ::testing::TestWithParam<ChargeCase> {};

TEST_P(ChargeWriteTest, ChargesExactlyWhatWriteChargesAndStoresNothing) {
  const ChargeCase c = GetParam();
  Rig stored(c.devices, 256 * kMiB, c.level);
  Rig charged(c.devices, 256 * kMiB, c.level);
  // Both twins start from the same stored contents...
  constexpr std::uint64_t kRegion = 24 * kMiB;
  const std::vector<std::uint8_t> before = SeededBytes(kRegion, 7);
  for (Rig* rig : {&stored, &charged}) {
    rig->volume->set_write_cache(c.write_cache);
    ASSERT_TRUE(
        rig->sim.RunUntilComplete(rig->volume->Write(0, before)).ok());
    rig->sim.Run();
    if (c.degraded) {
      rig->devices[1]->Fail();
    }
  }
  ExpectSameCharge(stored, charged, "prefill");

  // ...then take unaligned writes of every size class: sub-stripe and
  // multi-stripe cached writes, writes past the cache's size limit, and a
  // burst of cache-sized writes that, while the cache takes them, runs
  // into the dirty limit.
  const bool cached = c.write_cache && !c.degraded;
  Rng rng(static_cast<std::uint64_t>(c.level) * 16 + c.devices);
  std::vector<std::uint8_t> expected = before;
  std::uint64_t max_dirty = 0;
  for (int op = 0; op < (cached ? 100 : 60); ++op) {
    std::uint64_t length = rng.Between(1, 300 * kKiB);
    if (op >= 50) {
      length = RaidVolume::kCacheMaxWrite - rng.Below(4 * kKiB);
    } else if (op % 10 == 9) {
      length = rng.Between(RaidVolume::kCacheMaxWrite + 1, 9 * kMiB);
    }
    const std::uint64_t offset = rng.Below(kRegion - length);
    const std::vector<std::uint8_t> data = SeededBytes(length, rng.Next());
    std::copy(data.begin(), data.end(),
              expected.begin() + static_cast<std::ptrdiff_t>(offset));
    const std::string where = "op " + std::to_string(op);
    ASSERT_TRUE(
        stored.sim.RunUntilComplete(stored.volume->Write(offset, data)).ok())
        << where;
    ASSERT_TRUE(charged.sim
                    .RunUntilComplete(
                        charged.volume->ChargeWrite(offset, length))
                    .ok())
        << where;
    ExpectSameCharge(stored, charged, where);
    max_dirty = std::max(max_dirty, stored.volume->dirty_bytes());
  }
  if (cached) {
    // The burst outran the destage, so writers stalled on the limit.
    EXPECT_GT(max_dirty,
              RaidVolume::kCacheDirtyLimit - RaidVolume::kCacheMaxWrite);
  }
  stored.sim.Run();
  charged.sim.Run();
  ExpectSameCharge(stored, charged, "drained");

  // The stored twin reads back what was written, the charged twin what it
  // held before (reconstructed around the failed member when degraded).
  auto now = stored.sim.RunUntilComplete(stored.volume->Read(0, kRegion));
  ASSERT_TRUE(now.ok()) << now.status().ToString();
  EXPECT_TRUE(*now == expected);
  auto kept = charged.sim.RunUntilComplete(charged.volume->Read(0, kRegion));
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_TRUE(*kept == before);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsCacheHealth, ChargeWriteTest,
    ::testing::Values(ChargeCase{RaidLevel::kRaid1, 2, true, false},
                      ChargeCase{RaidLevel::kRaid1, 2, true, true},
                      ChargeCase{RaidLevel::kRaid1, 2, false, false},
                      ChargeCase{RaidLevel::kRaid1, 2, false, true},
                      ChargeCase{RaidLevel::kRaid5, 5, true, false},
                      ChargeCase{RaidLevel::kRaid5, 5, true, true},
                      ChargeCase{RaidLevel::kRaid5, 5, false, false},
                      ChargeCase{RaidLevel::kRaid5, 5, false, true},
                      ChargeCase{RaidLevel::kRaid6, 6, true, false},
                      ChargeCase{RaidLevel::kRaid6, 6, true, true},
                      ChargeCase{RaidLevel::kRaid6, 6, false, false},
                      ChargeCase{RaidLevel::kRaid6, 6, false, true}));

TEST(ChargeWrite, RawDeviceStoresNothing) {
  sim::Simulator sim;
  StorageDevice stored(sim, "a", kGiB, HddPerf());
  StorageDevice charged(sim, "b", kGiB, HddPerf());
  ASSERT_TRUE(sim.RunUntilComplete(
                  stored.Write(100, std::vector<std::uint8_t>(kMiB, 3)))
                  .ok());
  const sim::TimePoint t = sim.now();
  ASSERT_TRUE(sim.RunUntilComplete(charged.ChargeWrite(100, kMiB)).ok());
  EXPECT_EQ(sim.now() - t, t);  // the same request time from time zero
  EXPECT_EQ(charged.bytes_written(), stored.bytes_written());
  EXPECT_EQ(charged.busy_time(), stored.busy_time());
  EXPECT_EQ(stored.stored_bytes(), 17 * 64 * kKiB);  // chunks touched
  EXPECT_EQ(charged.stored_bytes(), 0u);
  EXPECT_EQ(sim.RunUntilComplete(charged.ChargeWrite(kGiB, 1)).code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace ros::disk
