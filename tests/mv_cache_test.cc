// Randomized differential test for the MV's decoded-index cache.
//
// Two full MV stacks run the same randomized op sequence: one with a small
// cache (so hits, invalidations, and LRU evictions all exercise), one with
// the cache disabled (capacity 0). Every op's observable outcome — decoded
// JSON, error codes, namespace listings — must be byte-identical, and the
// cached side's bookkeeping must respect its bound. This is the
// falsification harness for the push-invalidation design: if any mutation
// path fails to drop a cached entry, the cached side eventually serves a
// stale decode and the streams diverge. Every case runs on both stores.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/disk/block_device.h"
#include "src/olfs/metadata_volume.h"
#include "src/olfs/mv_file_store.h"
#include "src/sim/simulator.h"

namespace ros::olfs {
namespace {

constexpr std::size_t kCacheCapacity = 8;

struct Stack {
  Stack(bool log_structured, std::size_t cache_capacity)
      : device(sim, "ssd", 64 * kMiB, disk::SsdPerf()),
        volume(sim, &device, disk::MetadataVolumeParams()),
        mv(sim, &volume,
           MetadataVolume::Options{.log_structured = log_structured,
                                   .cache_capacity = cache_capacity}) {}

  sim::Simulator sim;
  disk::StorageDevice device;
  disk::Volume volume;
  MetadataVolume mv;
};

IndexFile MakeIndex(const std::string& path, std::uint64_t size) {
  IndexFile index(path, EntryType::kFile);
  VersionEntry entry;
  entry.total_size = size;
  entry.parts.push_back({"img-000042", size});
  index.AddVersion(std::move(entry), 15);
  return index;
}

// One op against one stack; returns a string capturing everything the op
// observed. op/arg/size are decided by the caller so both stacks see the
// exact same sequence.
sim::Task<std::string> ApplyOp(MetadataVolume* mv, int op, std::string path,
                               std::uint64_t size) {
  std::string outcome;
  if (op == 0) {  // Put
    Status status = co_await mv->Put(MakeIndex(path, size));
    outcome = "put:" + std::string(StatusCodeName(status.code()));
  } else if (op == 1) {  // Get via the shared-ref path and the copy path
    auto ref = co_await mv->GetRef(path);
    outcome = "get:";
    if (ref.ok()) {
      outcome += (*ref)->ToJson();
    } else {
      outcome += StatusCodeName(ref.status().code());
    }
    auto copy = co_await mv->Get(path);
    outcome += "|copy:";
    if (copy.ok()) {
      outcome += copy->ToJson();
    } else {
      outcome += StatusCodeName(copy.status().code());
    }
  } else if (op == 2) {  // Remove
    Status status = co_await mv->Remove(path);
    outcome = "rm:" + std::string(StatusCodeName(status.code()));
  } else if (op == 3) {  // direct volume write, bypassing the MV
    // The file store's index file for `path`. The log-structured store
    // never reads it, so there it is volume noise that must not disturb
    // the store.
    const std::string doc = MakeIndex(path, size).ToJson();
    const std::string name = FileMvStore::IndexName(path);
    Status status = OkStatus();
    if (!mv->volume()->Exists(name)) {
      status = co_await mv->volume()->Create(name);
    }
    if (status.ok()) {
      status = co_await mv->volume()->WriteAll(
          name, std::vector<std::uint8_t>(doc.begin(), doc.end()));
    }
    outcome = "direct:" + std::string(StatusCodeName(status.code()));
  } else if (op == 4) {  // namespace reads
    outcome = "ls:";
    for (const auto& child : mv->ListChildren("/t")) {
      outcome += child + ",";
    }
    outcome += mv->HasChildren("/t") ? "|has" : "|none";
    outcome += "|n=" + std::to_string(mv->index_count());
  } else {  // snapshot → wipe → restore cycle
    auto snapshot = co_await mv->BuildSnapshotImage("snap", 64 * kMiB);
    outcome = "cycle:";
    if (!snapshot.ok()) {
      outcome += StatusCodeName(snapshot.status().code());
    } else {
      mv->WipeAll();
      Status restored = co_await mv->RestoreFromSnapshot(*snapshot);
      outcome += StatusCodeName(restored.code());
      outcome += "|n=" + std::to_string(mv->index_count());
    }
  }
  co_return outcome;
}

// The parameter is Options::log_structured.
class MvCacheTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Stores, MvCacheTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Log" : "File";
                         });

TEST_P(MvCacheTest, RandomizedOpsMatchCacheDisabledStack) {
  Stack cached(GetParam(), kCacheCapacity);
  Stack plain(GetParam(), 0);
  Rng rng(20260807);

  // More paths than cache slots, so the LRU bound and eviction path are
  // continuously exercised, not just the happy hit path.
  std::vector<std::string> paths;
  for (int i = 0; i < 24; ++i) {
    paths.push_back("/t/f" + std::to_string(i));
  }

  for (int step = 0; step < 600; ++step) {
    // Ops 0-4 uniform; the expensive snapshot→wipe→restore cycle (op 5)
    // runs on ~2% of steps — enough to interleave restores with cached
    // reads without dominating the run.
    int op = static_cast<int>(rng.Below(5));
    if (rng.Chance(0.02)) {
      op = 5;
    }
    const std::string path = paths[rng.Below(paths.size())];
    const std::uint64_t size = 1 + rng.Below(1 << 20);

    auto got = cached.sim.RunUntilComplete(
        ApplyOp(&cached.mv, op, path, size));
    auto want = plain.sim.RunUntilComplete(
        ApplyOp(&plain.mv, op, path, size));
    ASSERT_EQ(got, want) << "diverged at step " << step << " op " << op
                         << " path " << path;
    ASSERT_LE(cached.mv.cache_size(), kCacheCapacity)
        << "cache exceeded its bound at step " << step;
    ASSERT_EQ(plain.mv.cache_size(), 0u);
  }

  // Deterministic closing sweep: touching every path in order forces the
  // working set past the 8-slot bound (the random walk above can stay
  // under it when a restore cycle clears the cache near a peak). Still
  // differential: both stacks apply the same ops.
  for (const std::string& path : paths) {
    auto got = cached.sim.RunUntilComplete(ApplyOp(&cached.mv, 0, path, 1));
    auto want = plain.sim.RunUntilComplete(ApplyOp(&plain.mv, 0, path, 1));
    ASSERT_EQ(got, want);
    ASSERT_LE(cached.mv.cache_size(), kCacheCapacity);
  }
  EXPECT_EQ(cached.mv.cache_size(), kCacheCapacity);

  const auto& stats = cached.mv.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u) << "24 paths vs 8 slots must evict";
  EXPECT_EQ(plain.mv.cache_stats().hits, 0u);
}

TEST_P(MvCacheTest, LruEvictsOldestAndCountsIt) {
  Stack stack(GetParam(), 2);
  auto& sim = stack.sim;
  auto& mv = stack.mv;
  for (const char* path : {"/t/a", "/t/b", "/t/c"}) {
    ASSERT_TRUE(sim.RunUntilComplete(mv.Put(MakeIndex(path, 1))).ok());
  }
  EXPECT_EQ(mv.cache_size(), 2u);
  EXPECT_EQ(mv.cache_stats().evictions, 1u);

  // "/t/a" was evicted (oldest); "/t/b" and "/t/c" are resident.
  const auto before = mv.cache_stats();
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/c")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/b")).ok());
  EXPECT_EQ(mv.cache_stats().hits, before.hits + 2);
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/a")).ok());
  EXPECT_EQ(mv.cache_stats().misses, before.misses + 1);
  // The miss re-published "/t/a", evicting the then-oldest entry ("/t/c",
  // demoted by the touch order above).
  EXPECT_EQ(mv.cache_stats().evictions, 2u);
  const auto mid = mv.cache_stats();
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/b")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/a")).ok());
  EXPECT_EQ(mv.cache_stats().hits, mid.hits + 2);
}

TEST_P(MvCacheTest, ZeroCapacityNeverCaches) {
  Stack stack(GetParam(), 0);
  auto& sim = stack.sim;
  auto& mv = stack.mv;
  ASSERT_TRUE(sim.RunUntilComplete(mv.Put(MakeIndex("/t/z", 3))).ok());
  for (int i = 0; i < 3; ++i) {
    auto index = sim.RunUntilComplete(mv.Get("/t/z"));
    ASSERT_TRUE(index.ok());
    EXPECT_EQ((*index->Latest())->total_size, 3u);
  }
  EXPECT_EQ(mv.cache_size(), 0u);
  EXPECT_EQ(mv.cache_stats().hits, 0u);
  EXPECT_EQ(mv.cache_stats().misses, 0u);  // disabled, not "always missing"
}

}  // namespace
}  // namespace ros::olfs
