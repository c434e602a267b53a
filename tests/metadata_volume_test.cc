// Unit tests for the Metadata Volume (§4.2).
#include "src/olfs/metadata_volume.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/disk/block_device.h"
#include "src/olfs/mv_file_store.h"
#include "src/sim/simulator.h"

namespace ros::olfs {
namespace {

class MvFixture : public ::testing::Test {
 protected:
  explicit MvFixture(bool log_structured)
      : device_(sim_, "ssd", 64 * kMiB, disk::SsdPerf()),
        volume_(sim_, &device_, disk::MetadataVolumeParams()),
        mv_(sim_, &volume_,
            MetadataVolume::Options{.log_structured = log_structured}) {}

  IndexFile FileIndex(const std::string& path, std::uint64_t size) {
    IndexFile index(path, EntryType::kFile);
    VersionEntry entry;
    entry.total_size = size;
    entry.parts.push_back({"img-000000", size});
    index.AddVersion(std::move(entry), 15);
    return index;
  }

  sim::Simulator sim_;
  disk::StorageDevice device_;
  disk::Volume volume_;
  MetadataVolume mv_;
};

// Runs on both stores: the parameter is Options::log_structured.
class MetadataVolumeTest : public MvFixture,
                           public ::testing::WithParamInterface<bool> {
 protected:
  MetadataVolumeTest() : MvFixture(GetParam()) {}
};

INSTANTIATE_TEST_SUITE_P(Stores, MetadataVolumeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Log" : "File";
                         });

// Cases that write the file store's "/idx" files behind the MV's back.
class FileMetadataVolumeTest : public MvFixture {
 protected:
  FileMetadataVolumeTest() : MvFixture(false) {}
};

TEST_P(MetadataVolumeTest, PutGetRoundTrip) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/a/b", 123))).ok());
  EXPECT_TRUE(mv_.Exists("/a/b"));
  auto index = sim_.RunUntilComplete(mv_.Get("/a/b"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->path(), "/a/b");
  EXPECT_EQ((*index->Latest())->total_size, 123u);
}

TEST_P(MetadataVolumeTest, PutOverwritesInPlace) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/f", 1))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/f", 2))).ok());
  auto index = sim_.RunUntilComplete(mv_.Get("/f"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index->Latest())->total_size, 2u);
  EXPECT_EQ(mv_.index_count(), 1u);
}

TEST_P(MetadataVolumeTest, GetMissingFails) {
  EXPECT_EQ(sim_.RunUntilComplete(mv_.Get("/nope")).status().code(),
            StatusCode::kNotFound);
}

TEST_P(MetadataVolumeTest, RemoveDeletesIndex) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/f", 1))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Remove("/f")).ok());
  EXPECT_FALSE(mv_.Exists("/f"));
}

TEST_P(MetadataVolumeTest, ListChildrenDirectOnly) {
  for (const char* path : {"/d", "/d/x", "/d/y", "/d/sub", "/d/sub/deep",
                           "/d/sub/b/deeper", "/other"}) {
    IndexFile index(path, EntryType::kDirectory);
    ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(index)).ok());
  }
  auto children = mv_.ListChildren("/d");
  EXPECT_EQ(children, (std::vector<std::string>{"sub", "x", "y"}));
  EXPECT_EQ(mv_.ListChildren("/"),
            (std::vector<std::string>{"d", "other"}));
  EXPECT_TRUE(mv_.ListChildren("/d/x").empty());
  // "/d/sub/b" has no entry of its own: descendants alone do not make it
  // a child, and its subtree is skipped with one seek.
  EXPECT_EQ(mv_.ListChildren("/d/sub"), (std::vector<std::string>{"deep"}));
  EXPECT_TRUE(mv_.ListChildren("/nope").empty());
}

TEST_P(MetadataVolumeTest, SystemStateRoundTrip) {
  json::Object state;
  state["arrays_burned"] = json::Value(7);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.PutState("checkpoint", json::Value(std::move(state))))
                  .ok());
  auto loaded = sim_.RunUntilComplete(mv_.GetState("checkpoint"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)["arrays_burned"].as_int(), 7);
  // Overwrite works too.
  json::Object state2;
  state2["arrays_burned"] = json::Value(8);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.PutState("checkpoint", json::Value(std::move(state2))))
                  .ok());
  loaded = sim_.RunUntilComplete(mv_.GetState("checkpoint"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)["arrays_burned"].as_int(), 8);
}

TEST_P(MetadataVolumeTest, SnapshotRoundTripRestoresNamespace) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/p/a", 10))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/p/b", 20))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.Put(IndexFile("/p", EntryType::kDirectory))).ok());

  auto snapshot = sim_.RunUntilComplete(
      mv_.BuildSnapshotImage("mv-snap-0", 64 * kMiB));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->file_count(), 3u);

  mv_.WipeAll();
  EXPECT_EQ(mv_.index_count(), 0u);
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.RestoreFromSnapshot(*snapshot)).ok());
  EXPECT_EQ(mv_.index_count(), 3u);
  auto index = sim_.RunUntilComplete(mv_.Get("/p/b"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index->Latest())->total_size, 20u);
}

TEST_P(MetadataVolumeTest, SnapshotHandlesDirectoryChildCollision) {
  // A directory index file and its children must coexist in the snapshot
  // (regression: the "#idx" suffix prevents path collisions).
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.Put(IndexFile("/snap", EntryType::kDirectory))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/snap/f", 1))).ok());
  auto snapshot = sim_.RunUntilComplete(
      mv_.BuildSnapshotImage("mv-snap-1", 64 * kMiB));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
}

TEST_P(MetadataVolumeTest, AllPathsSorted) {
  for (const char* path : {"/z", "/a", "/m/k"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex(path, 1))).ok());
  }
  EXPECT_EQ(mv_.AllPaths(), (std::vector<std::string>{"/a", "/m/k", "/z"}));
}

TEST_P(MetadataVolumeTest, HasChildrenMatchesListChildren) {
  EXPECT_FALSE(mv_.HasChildren("/"));
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.Put(IndexFile("/d", EntryType::kDirectory))).ok());
  EXPECT_FALSE(mv_.HasChildren("/d"));
  EXPECT_TRUE(mv_.HasChildren("/"));  // "/d" itself is a child of the root
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/d/f", 1))).ok());
  EXPECT_TRUE(mv_.HasChildren("/d"));
  EXPECT_TRUE(mv_.HasChildren("/"));
  EXPECT_FALSE(mv_.HasChildren("/d/f"));
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Remove("/d/f")).ok());
  EXPECT_FALSE(mv_.HasChildren("/d"));
}

TEST_P(MetadataVolumeTest, PutPublishesToCacheAndGetHits) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/c", 5))).ok());
  EXPECT_EQ(mv_.cache_size(), 1u);
  const auto before = mv_.cache_stats();
  auto index = sim_.RunUntilComplete(mv_.Get("/c"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index->Latest())->total_size, 5u);
  EXPECT_EQ(mv_.cache_stats().hits, before.hits + 1);
  EXPECT_EQ(mv_.cache_stats().misses, before.misses);
}

TEST_P(MetadataVolumeTest, GetRefSharesOneDecodedObject) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/s", 9))).ok());
  auto first = sim_.RunUntilComplete(mv_.GetRef("/s"));
  auto second = sim_.RunUntilComplete(mv_.GetRef("/s"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Hits hand out the same immutable decode, not copies.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ((**first).path(), "/s");
}

TEST_P(MetadataVolumeTest, GetAndGetRefAgree) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/both", 3))).ok());
  auto ref = sim_.RunUntilComplete(mv_.GetRef("/both"));
  auto copy = sim_.RunUntilComplete(mv_.Get("/both"));
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ((*ref)->ToJson(), copy->ToJson());
  EXPECT_EQ(sim_.RunUntilComplete(mv_.GetRef("/nope")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(FileMetadataVolumeTest, DirectVolumeWriteInvalidatesCachedEntry) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/inv", 1))).ok());
  auto warm = sim_.RunUntilComplete(mv_.Get("/inv"));
  ASSERT_TRUE(warm.ok());

  // Bypass the MV entirely — recovery tools and corruption tests write the
  // volume directly. The mutation observer must drop the cached decode.
  const std::string doc = FileIndex("/inv", 42).ToJson();
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.volume()->WriteAll(
                      FileMvStore::IndexName("/inv"),
                      std::vector<std::uint8_t>(doc.begin(), doc.end())))
                  .ok());
  const auto misses_before = mv_.cache_stats().misses;
  auto fresh = sim_.RunUntilComplete(mv_.Get("/inv"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh->Latest())->total_size, 42u);
  EXPECT_EQ(mv_.cache_stats().misses, misses_before + 1);
}

TEST_P(MetadataVolumeTest, RemoveAndWipeDropCachedEntries) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/r1", 1))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/r2", 2))).ok());
  EXPECT_EQ(mv_.cache_size(), 2u);
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Remove("/r1")).ok());
  EXPECT_EQ(mv_.cache_size(), 1u);
  EXPECT_EQ(sim_.RunUntilComplete(mv_.Get("/r1")).status().code(),
            StatusCode::kNotFound);
  mv_.WipeAll();
  EXPECT_EQ(mv_.cache_size(), 0u);
  EXPECT_EQ(sim_.RunUntilComplete(mv_.Get("/r2")).status().code(),
            StatusCode::kNotFound);
}

TEST_P(MetadataVolumeTest, RestorePastPerFileFailuresReportsCount) {
  for (const char* path : {"/p/a", "/p/b", "/p/c"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex(path, 7))).ok());
  }
  auto snapshot = sim_.RunUntilComplete(
      mv_.BuildSnapshotImage("mv-snap-err", 64 * kMiB));
  ASSERT_TRUE(snapshot.ok());

  mv_.WipeAll();
  // Leave the volume with no free space: every restored write (an index
  // file, or a WAL append) must fail, and the restore should keep going
  // and count each failed entry rather than abort on the first one.
  disk::Volume* volume = mv_.volume();
  ASSERT_TRUE(sim_.RunUntilComplete(volume->Create("/fill")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume->Write("/fill", 0,
                                std::vector<std::uint8_t>(
                                    volume->free_bytes())))
                  .ok());

  Status status = sim_.RunUntilComplete(mv_.RestoreFromSnapshot(*snapshot));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(std::string(status.message()).find("2 more restore failures"),
            std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace ros::olfs
