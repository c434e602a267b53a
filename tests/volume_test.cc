#include "src/disk/volume.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/sim/simulator.h"

namespace ros::disk {
namespace {

class VolumeTest : public ::testing::Test {
 protected:
  VolumeTest()
      : device_(sim_, "ssd", 64 * kMiB, SsdPerf()),
        volume_(sim_, &device_, MetadataVolumeParams()) {}

  std::vector<std::uint8_t> Bytes(const std::string& s) {
    return {s.begin(), s.end()};
  }

  sim::Simulator sim_;
  StorageDevice device_;
  Volume volume_;
};

TEST_F(VolumeTest, CreateWriteReadDelete) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/idx/a.json")).ok());
  EXPECT_TRUE(volume_.Exists("/idx/a.json"));
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Write("/idx/a.json", 0, Bytes("hello")))
                  .ok());
  EXPECT_EQ(*volume_.FileSize("/idx/a.json"), 5u);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("/idx/a.json"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("hello"));
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Delete("/idx/a.json")).ok());
  EXPECT_FALSE(volume_.Exists("/idx/a.json"));
}

TEST_F(VolumeTest, DuplicateCreateFails) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("f")).ok());
  EXPECT_EQ(sim_.RunUntilComplete(volume_.Create("f")).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(VolumeTest, MissingFileErrors) {
  EXPECT_EQ(sim_.RunUntilComplete(volume_.Read("nope", 0, 1)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sim_.RunUntilComplete(volume_.Delete("nope")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(volume_.FileSize("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(VolumeTest, AppendGrowsFile) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("log")).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Append("log", Bytes("ab"))).ok());
  }
  EXPECT_EQ(*volume_.FileSize("log"), 10u);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("log"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("ababababab"));
}

TEST_F(VolumeTest, SparseWriteBeyondEnd) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("sparse")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("sparse", 5000, Bytes("X")))
                  .ok());
  EXPECT_EQ(*volume_.FileSize("sparse"), 5001u);
  auto data = sim_.RunUntilComplete(volume_.Read("sparse", 4998, 3));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[2], 'X');
  EXPECT_EQ((*data)[0], 0);
}

TEST_F(VolumeTest, WriteAllTruncates) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("f")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.WriteAll("f", std::vector<std::uint8_t>(10000, 1)))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.WriteAll("f", Bytes("tiny"))).ok());
  EXPECT_EQ(*volume_.FileSize("f"), 4u);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("f"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("tiny"));
}

TEST_F(VolumeTest, ReadBeyondEofRejected) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("f")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("f", 0, Bytes("abc"))).ok());
  EXPECT_EQ(sim_.RunUntilComplete(volume_.Read("f", 2, 2)).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(VolumeTest, ListByPrefix) {
  for (const char* name : {"/a/1", "/a/2", "/b/1"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create(name)).ok());
  }
  EXPECT_EQ(volume_.List("/a/").size(), 2u);
  EXPECT_EQ(volume_.List().size(), 3u);
  EXPECT_EQ(volume_.List("/c").size(), 0u);
}

TEST_F(VolumeTest, SpaceAccountingAndReuse) {
  const std::uint64_t before = volume_.used_blocks();
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("big")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Write("big", 0, std::vector<std::uint8_t>(
                                              100 * volume_.block_size())))
                  .ok());
  EXPECT_EQ(volume_.used_blocks(), before + 100);
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Delete("big")).ok());
  EXPECT_EQ(volume_.used_blocks(), before);
}

TEST_F(VolumeTest, FillsAndReportsExhaustion) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("huge")).ok());
  const std::uint64_t free = volume_.free_bytes();
  EXPECT_EQ(sim_.RunUntilComplete(
                volume_.Write("huge", 0,
                              std::vector<std::uint8_t>(free + kKiB)))
                .code(),
            StatusCode::kResourceExhausted);
  // Failed allocation must not leak blocks.
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Write("huge", 0, std::vector<std::uint8_t>(free)))
                  .ok());
}

TEST_F(VolumeTest, FragmentationHandledByExtentChaining) {
  // Create interleaved files, delete every other one, then write a file
  // larger than any single hole.
  std::vector<std::string> names;
  for (int i = 0; i < 20; ++i) {
    std::string name = "frag" + std::to_string(i);
    names.push_back(name);
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create(name)).ok());
    ASSERT_TRUE(sim_.RunUntilComplete(
                    volume_.Write(name, 0, std::vector<std::uint8_t>(
                                               8 * volume_.block_size(), 1)))
                    .ok());
  }
  for (int i = 0; i < 20; i += 2) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Delete(names[i])).ok());
  }
  Rng rng(4);
  std::vector<std::uint8_t> data(60 * volume_.block_size());
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("big")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("big", 0, data)).ok());
  auto read = sim_.RunUntilComplete(volume_.ReadAll("big"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(VolumeTest, CountAndAnyWithPrefix) {
  for (const char* name : {"/a/1", "/a/2", "/a/3", "/ab", "/b/1"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create(name)).ok());
  }
  EXPECT_EQ(volume_.CountPrefix("/a/"), 3u);
  EXPECT_EQ(volume_.CountPrefix("/a"), 4u);  // "/ab" matches too
  EXPECT_EQ(volume_.CountPrefix(""), 5u);
  EXPECT_EQ(volume_.CountPrefix("/c"), 0u);
  EXPECT_TRUE(volume_.AnyWithPrefix("/a/"));
  EXPECT_TRUE(volume_.AnyWithPrefix("/b"));
  EXPECT_FALSE(volume_.AnyWithPrefix("/c"));
  EXPECT_FALSE(volume_.AnyWithPrefix("/a/4"));
}

TEST_F(VolumeTest, FirstWithPrefixSeeksInOrder) {
  for (const char* name : {"/c", "/d/file", "/d/sub", "/d/sub/a", "/e"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create(name)).ok());
  }
  using Next = std::optional<std::string>;
  // Any `from` below the prefix starts at the first match.
  EXPECT_EQ(volume_.FirstWithPrefix("/d/", ""), Next("/d/file"));
  EXPECT_EQ(volume_.FirstWithPrefix("/d/", "/d/sub"), Next("/d/sub"));
  EXPECT_EQ(volume_.FirstWithPrefix("/d/", std::string("/d/sub\0", 7)),
            Next("/d/sub/a"));
  // Past the prefix's last name: "/e" sorts next but does not match.
  EXPECT_EQ(volume_.FirstWithPrefix("/d/", "/d/sub0"), std::nullopt);
  EXPECT_EQ(volume_.FirstWithPrefix("/x/", ""), std::nullopt);
}

TEST_F(VolumeTest, WriteGenerationsMonotonicAndNeverReused) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("g")).ok());
  const auto created = volume_.StatFile("g");
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("g", 0, Bytes("a"))).ok());
  const auto written = volume_.StatFile("g");
  ASSERT_TRUE(written.ok());
  EXPECT_GT(written->write_gen, created->write_gen);
  EXPECT_EQ(written->size, 1u);

  // Even a Delete/Create cycle of the same name must advance, so stale
  // cached state can never alias a recreated file.
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Delete("g")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("g")).ok());
  const auto recreated = volume_.StatFile("g");
  ASSERT_TRUE(recreated.ok());
  EXPECT_GT(recreated->write_gen, written->write_gen);

  // FormatQuick keeps the counter too.
  volume_.FormatQuick();
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("g")).ok());
  const auto after_format = volume_.StatFile("g");
  ASSERT_TRUE(after_format.ok());
  EXPECT_GT(after_format->write_gen, recreated->write_gen);

  EXPECT_EQ(volume_.StatFile("missing").status().code(),
            StatusCode::kNotFound);
}

TEST_F(VolumeTest, MapFileRangeReplaysSameCharges) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("m")).ok());
  std::vector<std::uint8_t> data(3 * volume_.block_size() + 17, 7);
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("m", 0, data)).ok());

  auto segments = volume_.MapFileRange("m", 0, data.size());
  ASSERT_TRUE(segments.ok());
  std::uint64_t mapped = 0;
  for (const auto& [dev_offset, length] : *segments) {
    mapped += length;
  }
  EXPECT_EQ(mapped, data.size());

  // Replaying the mapping must cost exactly what ReadDiscard costs.
  const sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.ReadDiscard("m", 0, data.size())).ok());
  const sim::TimePoint direct = sim_.now() - t0;
  const sim::TimePoint t1 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.ReadDiscardSegments(*segments)).ok());
  const sim::TimePoint replay = sim_.now() - t1;
  EXPECT_EQ(direct, replay);

  // Single-segment overload agrees with the vector form.
  if (segments->size() == 1) {
    const auto [dev_offset, length] = segments->front();
    const sim::TimePoint t2 = sim_.now();
    ASSERT_TRUE(sim_.RunUntilComplete(
                    volume_.ReadDiscardSegment(dev_offset, length)).ok());
    EXPECT_EQ(sim_.now() - t2, replay);
  }

  EXPECT_EQ(volume_.MapFileRange("m", data.size(), 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(volume_.MapFileRange("nope", 0, 1).status().code(),
            StatusCode::kNotFound);
}

TEST_F(VolumeTest, MutationObserverSeesEveryMutation) {
  using MutationKind = disk::Volume::MutationKind;
  std::vector<std::pair<std::string, MutationKind>> events;
  volume_.SetMutationObserver(
      [&events](const std::string& name, MutationKind kind) {
        events.emplace_back(name, kind);
      });

  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/f")).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().second, MutationKind::kCreated);
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("/f", 0, Bytes("a"))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Append("/f", Bytes("b"))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.WriteAll("/f", Bytes("c"))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.AppendSparse("/f", Bytes("d"), 8)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Delete("/f")).ok());
  // Every mutation named the file it touched, at least once each.
  EXPECT_GE(events.size(), 6u);
  for (const auto& [name, kind] : events) {
    EXPECT_EQ(name, "/f");
  }
  // Existence transitions are kind-tagged; everything between the Create
  // and the Delete only changed bytes.
  EXPECT_EQ(events.back().second, MutationKind::kDeleted);
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i].second, MutationKind::kModified);
  }

  // FormatQuick notifies with the empty name ("everything changed").
  events.clear();
  volume_.FormatQuick();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().first, "");
  EXPECT_EQ(events.front().second, MutationKind::kFormatted);

  // Reads never notify.
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/r")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("/r", 0, Bytes("x"))).ok());
  events.clear();
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.ReadAll("/r")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.ReadDiscard("/r", 0, 1)).ok());
  (void)volume_.StatFile("/r");
  (void)volume_.List("/");
  EXPECT_TRUE(events.empty());

  volume_.SetMutationObserver(nullptr);  // unregister must be safe
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/s")).ok());
  EXPECT_TRUE(events.empty());
}

TEST_F(VolumeTest, MetadataVolumeUses1KBlocks) {
  EXPECT_EQ(volume_.block_size(), 1 * kKiB);
}

TEST_F(VolumeTest, FormatQuickResets) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("x")).ok());
  volume_.FormatQuick();
  EXPECT_FALSE(volume_.Exists("x"));
  EXPECT_EQ(volume_.file_count(), 0u);
}

TEST_F(VolumeTest, AppendBatchLandsAsOneMutation) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/wal")).ok());
  ASSERT_TRUE(
      sim_.RunUntilComplete(volume_.Append("/wal", Bytes("head-"))).ok());
  const std::uint64_t gen_before = volume_.StatFile("/wal")->write_gen;

  // N pieces, one concatenated write: this is the group-commit primitive
  // (DESIGN.md §5i) — the batch must cost one generation step, not N.
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.AppendBatch(
                      "/wal", {Bytes("one-"), Bytes("two-"), Bytes("three")}))
                  .ok());
  auto data = sim_.RunUntilComplete(volume_.ReadAll("/wal"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("head-one-two-three"));
  EXPECT_EQ(volume_.StatFile("/wal")->write_gen, gen_before + 1);

  // Degenerate batches: empty piece list is a free no-op, and a batch
  // against a missing file is NotFound before any bytes move.
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.AppendBatch("/wal", {})).ok());
  EXPECT_EQ(volume_.StatFile("/wal")->write_gen, gen_before + 1);
  auto missing =
      sim_.RunUntilComplete(volume_.AppendBatch("/nope", {Bytes("x")}));
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
}

TEST_F(VolumeTest, TruncateShrinksAndFreesBlocks) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/wal")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Write("/wal", 0,
                                std::vector<std::uint8_t>(3000, 0x5A)))
                  .ok());
  const std::uint64_t used_before = volume_.used_blocks();

  // Shrink to a non-block-aligned size: the tail past the cut is gone,
  // whole blocks past the new end return to the allocator.
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Truncate("/wal", 1100)).ok());
  EXPECT_EQ(*volume_.FileSize("/wal"), 1100u);
  EXPECT_LT(volume_.used_blocks(), used_before);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("/wal"));
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->size(), 1100u);
  EXPECT_EQ((*data)[1099], 0x5A);

  // Truncate never grows a file, and to-same-size is a no-op.
  auto grow = sim_.RunUntilComplete(volume_.Truncate("/wal", 5000));
  EXPECT_EQ(grow.code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Truncate("/wal", 1100)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Truncate("/wal", 0)).ok());
  EXPECT_EQ(*volume_.FileSize("/wal"), 0u);
}

}  // namespace
}  // namespace ros::disk
