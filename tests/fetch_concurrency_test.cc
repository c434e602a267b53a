// Concurrency tests of the fetch path (FTM): many clients hitting cold
// data at once must share mechanical work, not fight over it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/olfs/olfs.h"
#include "src/sim/join.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

using sim::Seconds;
using sim::ToSeconds;

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

class FetchConcurrencyTest : public ::testing::Test {
 protected:
  FetchConcurrencyTest() {
    SystemConfig config = TestSystemConfig();
    config.drive_sets = 2;
    system_ = std::make_unique<RosSystem>(sim_, config);
    OlfsParams params;
    params.disc_capacity_override = 16 * kMiB;
    params.read_cache_bytes = 0;
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = Seconds(1);
  }

  void PreserveCold(int files) {
    for (int i = 0; i < files; ++i) {
      ROS_CHECK(sim_.RunUntilComplete(
                    olfs_->Create("/cold/f" + std::to_string(i),
                                  RandomBytes(8 * kKiB, 500 + i)))
                    .ok());
    }
    ROS_CHECK(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  }

  // Destroy suspended background coroutines (prefetch tasks, burn loops)
  // while the system objects they borrow are still alive.
  ~FetchConcurrencyTest() override { sim_.Shutdown(); }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
};

// All the files live in one image on one disc: concurrent cold readers
// must share a single mechanical fetch.
TEST_F(FetchConcurrencyTest, ConcurrentReadsOfSameDiscShareOneFetch) {
  PreserveCold(6);
  sim::TimePoint t0 = sim_.now();
  std::vector<sim::Task<Status>> reads;
  for (int i = 0; i < 6; ++i) {
    reads.push_back([](Olfs* olfs, int idx) -> sim::Task<Status> {
      auto data = co_await olfs->Read("/cold/f" + std::to_string(idx), 0,
                                      8 * kKiB);
      if (!data.ok()) {
        co_return data.status();
      }
      if (*data != RandomBytes(8 * kKiB, 500 + idx)) {
        co_return DataLossError("content mismatch");
      }
      co_return OkStatus();
    }(olfs_.get(), i));
  }
  Status status = sim_.RunUntilComplete(sim::AllOk(sim_, std::move(reads)));
  EXPECT_TRUE(status.ok()) << status.ToString();
  // One mechanical load amortized across all six readers.
  EXPECT_EQ(olfs_->fetches().fetches(), 1u);
  // Image-level single-flight: one leader performed the optical read, the
  // other five were served from its parsed image.
  EXPECT_EQ(olfs_->reader().shared_image_reads(), 5u);
  // Total stays near one load+read, not six.
  EXPECT_LT(ToSeconds(sim_.now() - t0), 110.0);
}

// Readers of two different arrays use the two bays concurrently.
TEST_F(FetchConcurrencyTest, DistinctArraysFetchInParallel) {
  // Two far-apart batches end up in different images; force two arrays by
  // flushing in between.
  ROS_CHECK(sim_.RunUntilComplete(
                olfs_->Create("/a/x", RandomBytes(8 * kKiB, 1))).ok());
  ROS_CHECK(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ROS_CHECK(sim_.RunUntilComplete(
                olfs_->Create("/b/y", RandomBytes(8 * kKiB, 2))).ok());
  ROS_CHECK(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());

  sim::TimePoint t0 = sim_.now();
  std::vector<sim::Task<Status>> reads;
  for (const char* path : {"/a/x", "/b/y"}) {
    reads.push_back([](Olfs* olfs, std::string p) -> sim::Task<Status> {
      auto data = co_await olfs->Read(p, 0, 8 * kKiB);
      co_return data.status().ok() ? OkStatus() : data.status();
    }(olfs_.get(), path));
  }
  Status status = sim_.RunUntilComplete(sim::AllOk(sim_, std::move(reads)));
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(olfs_->fetches().fetches(), 2u);
  // Both bays work, but the single robotic arm serializes the two loads
  // (~69 s each); the drive reads overlap.
  const double seconds = ToSeconds(sim_.now() - t0);
  EXPECT_GT(seconds, 130.0);
  EXPECT_LT(seconds, 160.0);
}

// Concurrent updates of one file serialize on the per-path lock: every
// writer lands a distinct version, none are silently lost.
TEST_F(FetchConcurrencyTest, ConcurrentUpdatesAllBecomeVersions) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/w/shared", RandomBytes(100, 0))).ok());
  std::vector<sim::Task<Status>> writes;
  for (int i = 1; i <= 4; ++i) {
    writes.push_back([](Olfs* olfs, int k) -> sim::Task<Status> {
      co_return co_await olfs->Update(
          "/w/shared", RandomBytes(200, static_cast<std::uint64_t>(k)),
          200);
    }(olfs_.get(), i));
  }
  ASSERT_TRUE(
      sim_.RunUntilComplete(sim::AllOk(sim_, std::move(writes))).ok());
  auto info = sim_.RunUntilComplete(olfs_->Stat("/w/shared"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 5);
  // Every intermediate version is present and readable.
  for (int v = 2; v <= 5; ++v) {
    auto data = sim_.RunUntilComplete(
        olfs_->ReadVersion("/w/shared", v, 0, 200));
    EXPECT_TRUE(data.ok()) << "version " << v;
  }
}

// Concurrent creates of one path: exactly one wins.
TEST_F(FetchConcurrencyTest, ConcurrentCreatesOneWinner) {
  int successes = 0;
  int already = 0;
  std::vector<sim::Task<Status>> creates;
  for (int i = 0; i < 3; ++i) {
    creates.push_back([](Olfs* olfs, int k, int* ok_count,
                         int* exists_count) -> sim::Task<Status> {
      Status status = co_await olfs->Create(
          "/w/once", RandomBytes(50, static_cast<std::uint64_t>(k)));
      if (status.ok()) {
        ++*ok_count;
      } else if (status.code() == StatusCode::kAlreadyExists) {
        ++*exists_count;
      }
      co_return OkStatus();
    }(olfs_.get(), i, &successes, &already));
  }
  ASSERT_TRUE(
      sim_.RunUntilComplete(sim::AllOk(sim_, std::move(creates))).ok());
  EXPECT_EQ(successes, 1);
  EXPECT_EQ(already, 2);
  auto info = sim_.RunUntilComplete(olfs_->Stat("/w/once"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 1);
}

// A 40 MiB file splits over three 16 MiB images on three discs of ONE
// array. Concurrent readers of the three parts must be drained by a
// single load cycle: the first claims the freshly loaded bay, the other
// two get it handed off on release, no unload in between.
TEST_F(FetchConcurrencyTest, SameTrayBatchDrainsWithOneLoadCycle) {
  auto payload = RandomBytes(40 * kMiB, 901);
  ROS_CHECK(sim_.RunUntilComplete(
                olfs_->Create("/trayA/big", payload, payload.size())).ok());
  ROS_CHECK(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ASSERT_NE(olfs_->fetch_scheduler(), nullptr);

  // One offset per part: the image boundaries sit near 16 and 32 MiB.
  const std::uint64_t offsets[] = {1 * kMiB, 20 * kMiB, 36 * kMiB};
  std::vector<sim::Task<Status>> reads;
  for (std::uint64_t offset : offsets) {
    reads.push_back([](Olfs* olfs, const std::vector<std::uint8_t>* expect,
                       std::uint64_t off) -> sim::Task<Status> {
      auto data = co_await olfs->Read("/trayA/big", off, 8 * kKiB);
      if (!data.ok()) {
        co_return data.status();
      }
      const std::vector<std::uint8_t> want(
          expect->begin() + static_cast<std::ptrdiff_t>(off),
          expect->begin() + static_cast<std::ptrdiff_t>(off + 8 * kKiB));
      co_return *data == want ? OkStatus()
                              : DataLossError("content mismatch");
    }(olfs_.get(), &payload, offset));
  }
  Status status = sim_.RunUntilComplete(sim::AllOk(sim_, std::move(reads)));
  EXPECT_TRUE(status.ok()) << status.ToString();

  const FetchSchedulerStats& stats = olfs_->fetch_scheduler()->stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.handoffs, 2u);
  EXPECT_EQ(stats.max_batch, 3u);
  EXPECT_EQ(stats.loads_avoided(), 2u);
  EXPECT_EQ(olfs_->fetch_scheduler()->queue_depth(), 0);
}

// The unload victim is never an array that readers are queued for, even
// when plain LRU would pick it: with array A resident-and-in-demand and
// array B resident-and-idle, a fetch of array C must evict B.
TEST_F(FetchConcurrencyTest, VictimNeverEvictsTrayWithQueuedDemand) {
  // Array A holds two images (sparse files); arrays B and C hold one each.
  for (int i = 0; i < 2; ++i) {
    ROS_CHECK(sim_.RunUntilComplete(
                  olfs_->Create("/a/f" + std::to_string(i),
                                RandomBytes(8 * kKiB, 700 + i), 10 * kMiB))
                  .ok());
  }
  ROS_CHECK(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ROS_CHECK(sim_.RunUntilComplete(
                olfs_->Create("/b/f", RandomBytes(8 * kKiB, 710))).ok());
  ROS_CHECK(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ROS_CHECK(sim_.RunUntilComplete(
                olfs_->Create("/c/f", RandomBytes(8 * kKiB, 720))).ok());
  ROS_CHECK(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());

  // Stage: A then B become resident; A's bay is the older (LRU) one, so a
  // recency-only policy would evict A.
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Read("/a/f0", 0, 8 * kKiB)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Read("/b/f", 0, 8 * kKiB)).ok());
  const FetchSchedulerStats& stats = olfs_->fetch_scheduler()->stats();
  ASSERT_EQ(stats.loads, 2u);

  // A reader of A's second image keeps demand on A while C's fetch picks
  // its victim.
  Status a1_status = UnavailableError("still running");
  sim_.Spawn([](Olfs* olfs, Status* out) -> sim::Task<void> {
    auto data = co_await olfs->Read("/a/f1", 0, 8 * kKiB);
    *out = data.status();
  }(olfs_.get(), &a1_status));
  sim_.RunFor(Seconds(2));
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Read("/c/f", 0, 8 * kKiB)).ok());
  sim_.RunFor(Seconds(60));
  EXPECT_TRUE(a1_status.ok()) << a1_status.ToString();

  // Each array was loaded exactly once: B (idle) was evicted for C, and A
  // (in demand) stayed put — a fourth load would mean A bounced out.
  EXPECT_EQ(stats.loads, 3u);
  EXPECT_EQ(stats.unloads, 1u);
  // A is still resident: re-reading it is a zero-mechanics parked hit.
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Read("/a/f0", 0, 8 * kKiB)).ok());
  EXPECT_EQ(stats.loads, 3u);
  EXPECT_GE(stats.parked_hits, 1u);
}

// Aging bound: a request stuck behind a continuous same-tray stream on a
// single-bay rack is promoted to strict FIFO once it crosses
// fetch_aging_bound — the hot array is evicted despite its demand and the
// starved reader completes within one unload/load cycle of the bound.
TEST(FetchSchedulerAgingTest, StarvedRequestPromotedWithinBound) {
  sim::Simulator sim;
  SystemConfig config = TestSystemConfig();
  config.drive_sets = 1;  // one bay: hot tray vs. far tray contend for it
  RosSystem system(sim, config);
  OlfsParams params;
  params.disc_capacity_override = 16 * kMiB;
  params.read_cache_bytes = 0;
  params.fetch_aging_bound = Seconds(30);
  Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = Seconds(1);

  // Hot array: four images; far array: one.
  for (int i = 0; i < 4; ++i) {
    ROS_CHECK(sim.RunUntilComplete(
                  olfs.Create("/hot/h" + std::to_string(i),
                              RandomBytes(8 * kKiB, 800 + i), 10 * kMiB))
                  .ok());
  }
  ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());
  ROS_CHECK(sim.RunUntilComplete(
                olfs.Create("/far/f", RandomBytes(8 * kKiB, 810))).ok());
  ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());

  // Two hot clients over disjoint image pairs keep the hot queue busy.
  Status hot_status[2] = {UnavailableError("running"),
                          UnavailableError("running")};
  for (int client = 0; client < 2; ++client) {
    sim.Spawn([](Olfs* o, int c, Status* out) -> sim::Task<void> {
      for (int k = 0; k < 2; ++k) {
        auto data =
            co_await o->Read("/hot/h" + std::to_string(c * 2 + k), 0,
                             8 * kKiB);
        if (!data.ok()) {
          *out = data.status();
          co_return;
        }
      }
      *out = OkStatus();
    }(&olfs, client, &hot_status[client]));
  }

  sim::TimePoint t0 = sim.now();
  auto far = sim.RunUntilComplete(olfs.Read("/far/f", 0, 8 * kKiB));
  ASSERT_TRUE(far.ok()) << far.status().ToString();
  EXPECT_EQ(*far, RandomBytes(8 * kKiB, 810));
  const double far_seconds = ToSeconds(sim.now() - t0);

  const FetchSchedulerStats& stats = olfs.fetch_scheduler()->stats();
  EXPECT_GE(stats.aged_dispatches, 1u);
  EXPECT_GE(stats.unloads, 1u);  // the demanded hot array was evicted
  // Bound + one unload/load cycle (+ reads in front), not unbounded.
  EXPECT_LT(far_seconds, 300.0);

  sim.RunFor(Seconds(800));  // hot clients reload their array and finish
  EXPECT_TRUE(hot_status[0].ok()) << hot_status[0].ToString();
  EXPECT_TRUE(hot_status[1].ok()) << hot_status[1].ToString();
  sim.Shutdown();
}

struct WorkloadResult {
  std::vector<std::pair<int, int>> dispatch_log;
  std::vector<std::vector<std::uint8_t>> bytes;  // per reader slot
};

// Fixed mixed workload (three arrays, six interleaved readers), used by
// the determinism and dispatch-policy differential tests below. `params`
// carries the dispatch knobs under test.
WorkloadResult RunMixedWorkload(OlfsParams params) {
  sim::Simulator sim;
  SystemConfig config = TestSystemConfig();
  config.drive_sets = 2;
  RosSystem system(sim, config);
  params.disc_capacity_override = 16 * kMiB;
  params.read_cache_bytes = 0;
  Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = Seconds(1);

  for (int a = 0; a < 3; ++a) {
    ROS_CHECK(sim.RunUntilComplete(
                  olfs.Create("/d/f" + std::to_string(a),
                              RandomBytes(8 * kKiB, 40 + a)))
                  .ok());
    ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());
  }

  WorkloadResult result;
  result.bytes.resize(6);
  std::vector<sim::Task<Status>> reads;
  for (int r = 0; r < 6; ++r) {
    reads.push_back(
        [](Olfs* o, int slot, std::vector<std::uint8_t>* out)
            -> sim::Task<Status> {
          auto data = co_await o->Read("/d/f" + std::to_string(slot % 3),
                                       0, 8 * kKiB);
          if (data.ok()) {
            *out = *data;
          }
          co_return data.status();
        }(&olfs, r, &result.bytes[r]));
  }
  ROS_CHECK(
      sim.RunUntilComplete(sim::AllOk(sim, std::move(reads))).ok());
  result.dispatch_log = olfs.fetch_scheduler()->dispatch_log();
  sim.Shutdown();
  return result;
}

// Same workload, same seed -> bit-identical dispatch order.
TEST(FetchSchedulerDeterminismTest, SameWorkloadSameDispatchOrder) {
  WorkloadResult first = RunMixedWorkload(OlfsParams());
  WorkloadResult second = RunMixedWorkload(OlfsParams());
  ASSERT_FALSE(first.dispatch_log.empty());
  EXPECT_EQ(first.dispatch_log, second.dispatch_log);
  EXPECT_EQ(first.bytes, second.bytes);
}

// Differential: dispatch policy changes WHEN fetches happen, never WHAT a
// read returns — every reader sees the same bytes under the default
// geometry-aware order, under strict-FIFO order (aging bound 0) and under
// FetchDispatch::kFifo, and all match the originally written data.
TEST(FetchSchedulerDeterminismTest, SchedulerOnOffReadsAreByteIdentical) {
  WorkloadResult geometry = RunMixedWorkload(OlfsParams());
  OlfsParams aged_params;
  aged_params.fetch_aging_bound = 0;
  WorkloadResult aged = RunMixedWorkload(aged_params);
  OlfsParams fifo_params;
  fifo_params.fetch_dispatch = FetchDispatch::kFifo;
  WorkloadResult fifo = RunMixedWorkload(fifo_params);
  // kFifo claims bays directly, so the scheduler dispatches no loads.
  EXPECT_FALSE(aged.dispatch_log.empty());
  EXPECT_TRUE(fifo.dispatch_log.empty());
  ASSERT_EQ(geometry.bytes.size(), aged.bytes.size());
  EXPECT_EQ(geometry.bytes, aged.bytes);
  EXPECT_EQ(geometry.bytes, fifo.bytes);
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(geometry.bytes[static_cast<std::size_t>(r)],
              RandomBytes(8 * kKiB, static_cast<std::uint64_t>(40 + r % 3)))
        << "reader " << r;
  }
}

// A demand read of image X races a scan-hinted tray readahead that stages
// X. Whichever reaches the disc first leads the one drive read of X; the
// other shares its parsed view. GetParam() is true when the readahead
// leads.
class ReadaheadRaceTest : public ::testing::TestWithParam<bool> {
 protected:
  ReadaheadRaceTest() {
    system_ = std::make_unique<RosSystem>(sim_, TestSystemConfig());
    OlfsParams params;
    params.disc_capacity_override = 16 * kMiB;
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = Seconds(1);
  }
  ~ReadaheadRaceTest() override { sim_.Shutdown(); }

  std::string ImageOf(const std::string& path) {
    auto index = sim_.RunUntilComplete(olfs_->mv().Get(path));
    ROS_CHECK(index.ok());
    return (*index->Latest())->parts.at(0).image_id;
  }

  std::uint64_t OpticalBytesRead() const {
    std::uint64_t total = 0;
    for (drive::DriveSet* set : system_->drive_sets()) {
      for (int i = 0; i < set->size(); ++i) {
        total += set->drive(i).bytes_read();
      }
    }
    return total;
  }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
};

// Reads `path` and checks it returns `expected`.
sim::Task<Status> ReadAndCheck(Olfs* olfs, std::string path,
                               std::vector<std::uint8_t> expected,
                               AccessHint hint) {
  auto data = co_await olfs->Read(path, 0, expected.size(), hint);
  if (!data.ok()) {
    co_return data.status();
  }
  co_return *data == expected ? OkStatus()
                              : DataLossError("content mismatch: " + path);
}

// A scan-hinted read of /scan/y, then a plain read of /scan/x.
sim::Task<Status> ScanYThenReadX(Olfs* olfs, std::vector<std::uint8_t> y,
                                 std::vector<std::uint8_t> x,
                                 AccessHint scan) {
  ROS_CO_RETURN_IF_ERROR(
      co_await ReadAndCheck(olfs, "/scan/y", std::move(y), scan));
  const AccessHint plain;
  co_return co_await ReadAndCheck(olfs, "/scan/x", std::move(x), plain);
}

TEST_P(ReadaheadRaceTest, DemandReadAndReadaheadShareOneDriveRead) {
  const bool readahead_leads = GetParam();
  const std::vector<std::uint8_t> x_bytes = RandomBytes(8 * kMiB, 71);
  const std::vector<std::uint8_t> y_bytes = RandomBytes(8 * kKiB, 72);
  // Two data images of one array: X's bucket closes before Y is written.
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/scan/x", x_bytes)).ok());
  ASSERT_TRUE(
      sim_.RunUntilComplete(olfs_->buckets().CloseCurrentBucket()).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/scan/y", y_bytes)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  const std::string x = ImageOf("/scan/x");
  const std::string y = ImageOf("/scan/y");
  ASSERT_NE(x, y);
  // Evict both as the read cache's overflow pass would, so the reads
  // below go to the discs.
  for (const std::string& id : {x, y}) {
    ASSERT_TRUE(olfs_->images().DropFromBuffer(id).ok());
    olfs_->cache().Remove(id);
  }
  const ImageRecord* x_record = *olfs_->images().Lookup(x);
  const ImageRecord* y_record = *olfs_->images().Lookup(y);
  ASSERT_EQ(x_record->disc->tray, y_record->disc->tray);
  const std::uint64_t x_stream = (*olfs_->mech()
                                        .DiscAt(*x_record->disc)
                                        ->FindSession(x))
                                     ->stored_bytes;

  const AccessHint scan{/*stream=*/7, /*scan=*/true};
  const std::uint64_t before = OpticalBytesRead();
  Status status;
  if (readahead_leads) {
    // The scan-hinted read of Y starts the tray readahead, whose drive
    // read of X is still in flight when the demand read of X arrives.
    status = sim_.RunUntilComplete(
        ScanYThenReadX(olfs_.get(), y_bytes, x_bytes, scan));
  } else {
    // The demand read of X (8 MiB) outlasts the scan-hinted read of Y
    // (8 KiB) after the shared tray load, so the readahead finds X's
    // drive read in flight.
    std::vector<sim::Task<Status>> reads;
    reads.push_back(ReadAndCheck(olfs_.get(), "/scan/x", x_bytes, {}));
    reads.push_back(ReadAndCheck(olfs_.get(), "/scan/y", y_bytes, scan));
    status = sim_.RunUntilComplete(sim::AllOk(sim_, std::move(reads)));
  }
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Let the readahead finish staging.
  sim_.RunUntilComplete(olfs_->Quiesce());

  // One drive read of X between them: the readahead's whole stream, or the
  // demand read's file bytes; plus the demand read of Y.
  const std::uint64_t x_read = readahead_leads ? x_stream : x_bytes.size();
  EXPECT_EQ(OpticalBytesRead() - before, x_read + y_bytes.size());
  // A demand read that follows is a shared read; a readahead that follows
  // stages the leader's view and serves no read, so it is not counted.
  EXPECT_EQ(olfs_->reader().shared_image_reads(), readahead_leads ? 1u : 0u);
  EXPECT_EQ(olfs_->reader().readahead_images(), 1u);
  // The readahead's staged copy holds the seeded bytes: a re-read of X is
  // served from the disk buffer, with no further optical read.
  EXPECT_EQ((*olfs_->images().Lookup(x))->tier, ImageTier::kBurnedCached);
  const std::uint64_t staged = OpticalBytesRead();
  auto again = sim_.RunUntilComplete(olfs_->Read("/scan/x", 0, x_bytes.size()));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, x_bytes);
  EXPECT_EQ(OpticalBytesRead(), staged);
}

INSTANTIATE_TEST_SUITE_P(BothOrders, ReadaheadRaceTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "ReadaheadLeads"
                                              : "DemandLeads";
                         });

}  // namespace
}  // namespace ros::olfs
