#include "src/udf/serializer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/udf/image.h"

namespace ros::udf {
namespace {

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

Image SampleImage() {
  Image image("image-0042", 25 * kGB);
  ROS_CHECK(image.AddFile("/archive/2016/trace.bin", Bytes("trace-data"),
                          4096).ok());
  ROS_CHECK(image.AddFile("/archive/2016/notes.txt", Bytes("hello")).ok());
  ROS_CHECK(image.AddLink("/archive/2017/huge.part1", "image-0041").ok());
  ROS_CHECK(image.MakeDirs("/empty/dir/chain").ok());
  image.Close();
  return image;
}

TEST(UdfSerializer, RoundTripPreservesEverything) {
  Image original = SampleImage();
  auto bytes = Serializer::Serialize(original);
  auto parsed = Serializer::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->id(), "image-0042");
  EXPECT_EQ(parsed->capacity(), 25 * kGB);
  EXPECT_TRUE(parsed->closed());
  EXPECT_EQ(parsed->file_count(), original.file_count());
  EXPECT_EQ(parsed->used_bytes(), original.used_bytes());

  auto data = parsed->ReadFile("/archive/2016/trace.bin", 0, 10);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("trace-data"));
  // Sparse logical size survives.
  auto node = parsed->Lookup("/archive/2016/trace.bin");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ((*node)->logical_size, 4096u);

  auto link = parsed->Lookup("/archive/2017/huge.part1");
  ASSERT_TRUE(link.ok());
  EXPECT_EQ((*link)->link_target_image, "image-0041");

  EXPECT_TRUE(parsed->Exists("/empty/dir/chain"));
}

TEST(UdfSerializer, WalkOrderIsDeterministic) {
  Image original = SampleImage();
  auto a = Serializer::Serialize(original);
  auto b = Serializer::Serialize(original);
  EXPECT_EQ(a, b);
}

TEST(UdfSerializer, CorruptionDetectedByCrc) {
  auto bytes = Serializer::Serialize(SampleImage());
  for (std::size_t pos : {std::size_t{20}, bytes.size() / 2,
                          bytes.size() - 20}) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0xFF;
    auto parsed = Serializer::Parse(corrupted);
    EXPECT_FALSE(parsed.ok()) << "flip at " << pos;
  }
}

TEST(UdfSerializer, TruncationDetected) {
  auto bytes = Serializer::Serialize(SampleImage());
  for (std::size_t keep : {std::size_t{4}, std::size_t{30},
                           bytes.size() - 1}) {
    auto truncated = std::vector<std::uint8_t>(bytes.begin(),
                                               bytes.begin() + keep);
    EXPECT_FALSE(Serializer::Parse(truncated).ok()) << "keep " << keep;
  }
}

TEST(UdfSerializer, BadMagicRejected) {
  auto bytes = Serializer::Serialize(SampleImage());
  bytes[0] = 'X';
  EXPECT_EQ(Serializer::Parse(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(UdfSerializer, EmptyImageRoundTrips) {
  Image empty("empty-img", kGB);
  auto parsed = Serializer::Parse(Serializer::Serialize(empty));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->file_count(), 0u);
  EXPECT_EQ(parsed->id(), "empty-img");
}

// Every file of `image` read whole, and in pieces that straddle the end of
// its stored bytes (the sparse tail), keyed by path.
std::map<std::string, std::vector<std::vector<std::uint8_t>>> ReadAll(
    const Image& image) {
  std::map<std::string, std::vector<std::vector<std::uint8_t>>> out;
  image.Walk([&](const std::string& path, const Node& node) {
    if (node.type != NodeType::kFile) {
      return;
    }
    auto& reads = out[path];
    const std::uint64_t size = node.logical_size;
    const std::uint64_t stored = node.bytes().size();
    for (auto [offset, length] :
         {std::pair<std::uint64_t, std::uint64_t>{0, size},
          {size / 3, size - size / 3},
          {stored / 2, std::min<std::uint64_t>(size - stored / 2, 700)},
          {size, 0}}) {
      auto bytes = image.ReadFile(path, offset, length);
      ROS_CHECK(bytes.ok());
      reads.push_back(std::move(*bytes));
    }
  });
  return out;
}

TEST(UdfSerializer, SealedImageSerializesToItsStream) {
  Image open("open-img", kGB);
  ASSERT_TRUE(open.AddFile("/a/sparse", Bytes("head"), 9000).ok());
  ASSERT_TRUE(open.AddFile("/a/dense", std::vector<std::uint8_t>(5000, 7))
                  .ok());
  ASSERT_TRUE(open.AddLink("/b/link", "other-img").ok());
  // Appends past a sparse tail materialize it before the new bytes.
  ASSERT_TRUE(open.AppendToFile("/a/sparse", Bytes("tail"), 100).ok());
  ASSERT_TRUE(open.AppendToFile("/a/dense", {}, 3000).ok());
  EXPECT_EQ(open.stream(), nullptr);
  EXPECT_GT(open.owned_payload_bytes(), 9000u);

  const std::vector<std::uint8_t> expected = Serializer::Serialize(open);
  const auto reads_open = ReadAll(open);
  const SharedBytes stream = Serializer::Seal(open);
  ASSERT_NE(stream, nullptr);
  EXPECT_TRUE(open.closed());
  EXPECT_EQ(open.stream(), stream);
  EXPECT_EQ(*stream, expected);
  EXPECT_EQ(Serializer::Serialize(open), expected);
  EXPECT_EQ(open.owned_payload_bytes(), 0u);
  EXPECT_EQ(ReadAll(open), reads_open);
  // Every file is a view into the stream.
  open.Walk([&](const std::string& path, const Node& node) {
    if (node.type == NodeType::kFile && !node.bytes().empty()) {
      EXPECT_GE(node.bytes().data(), stream->data()) << path;
      EXPECT_LE(node.bytes().data() + node.bytes().size(),
                stream->data() + stream->size())
          << path;
    }
  });
}

TEST(UdfSerializer, ClosedImagesRejectMutation) {
  Image image("img", kGB);
  ASSERT_TRUE(image.AddFile("/d/f", Bytes("abc")).ok());
  Image parsed = Serializer::Parse(Serializer::Serialize(image)).value();
  Serializer::Seal(image);
  Image closed("plain", kGB);
  closed.Close();
  for (Image* target : {&image, &parsed, &closed}) {
    EXPECT_EQ(target->AddFile("/d/g", Bytes("x")).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(target->AppendToFile("/d/f", Bytes("x"), 1).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(target->MakeDirs("/e").code(),
              StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(*image.ReadFile("/d/f", 0, 3), Bytes("abc"));
  EXPECT_EQ(*parsed.ReadFile("/d/f", 0, 3), Bytes("abc"));
}

TEST(UdfSerializer, InPlaceParseOutlivesTheCallersReference) {
  Image original = SampleImage();
  const auto reads = ReadAll(original);
  SharedBytes owner = MakeSharedBytes(Serializer::Serialize(original));
  const std::vector<std::uint8_t> expected = *owner;
  const std::uint8_t* const base = owner->data();
  auto parsed = Serializer::Parse(owner);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  owner.reset();  // the image's reference is now the only one

  ASSERT_NE(parsed->stream(), nullptr);
  EXPECT_EQ(parsed->stream()->data(), base);  // not copied
  EXPECT_EQ(*parsed->stream(), expected);
  EXPECT_EQ(parsed->owned_payload_bytes(), 0u);
  EXPECT_EQ(ReadAll(*parsed), reads);
  // Moving the image (as into a shared_ptr) keeps the views valid.
  auto moved = std::make_shared<Image>(std::move(*parsed));
  EXPECT_EQ(ReadAll(*moved), reads);
  EXPECT_EQ(Serializer::Serialize(*moved), expected);
}

TEST(UdfSerializer, InPlaceParseOfAPrefixOrPaddedStreamIsNotSealed) {
  const std::vector<std::uint8_t> bytes =
      Serializer::Serialize(SampleImage());
  std::vector<std::uint8_t> padded = bytes;
  padded.resize(bytes.size() + 64, 0);
  const SharedBytes owner = MakeSharedBytes(std::move(padded));

  // The serialized prefix of a longer buffer views the buffer...
  auto prefix = Serializer::Parse(BytesOf(owner).first(bytes.size()), owner);
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  EXPECT_EQ(prefix->stream(), nullptr);
  EXPECT_EQ(prefix->owned_payload_bytes(), 0u);
  EXPECT_EQ(Serializer::Serialize(*prefix), bytes);
  // ...and so does a parse of the whole padded buffer, whose trailing
  // bytes are not part of the image.
  auto whole = Serializer::Parse(owner);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->stream(), nullptr);
  EXPECT_EQ(Serializer::Serialize(*whole), bytes);
}

// Hand-encodes a stream in the format of serializer.h from raw records:
// (type, path, payload); a file's logical size is its payload size.
std::vector<std::uint8_t> Encode(
    const std::vector<std::tuple<NodeType, std::string, std::string>>&
        records) {
  std::vector<std::uint8_t> out = Bytes("ROSUDF01");
  auto put = [&out](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  auto put_str = [&](const std::string& s) {
    put(s.size(), 4);
    out.insert(out.end(), s.begin(), s.end());
  };
  put(1, 4);
  put_str("img");
  put(kGB, 8);
  put(records.size(), 8);
  for (const auto& [type, path, payload] : records) {
    out.push_back(static_cast<std::uint8_t>(type));
    put_str(path);
    if (type == NodeType::kFile) {
      put(payload.size(), 8);
      put(payload.size(), 8);
      out.insert(out.end(), payload.begin(), payload.end());
    }
  }
  put(Crc32(out), 4);
  const std::vector<std::uint8_t> anchor = Bytes("ROSUDFED");
  out.insert(out.end(), anchor.begin(), anchor.end());
  return out;
}

// Valid streams whose records are not the ones Serialize writes for the
// rebuilt tree (a file before its directory, a directory left implicit)
// parse, but are not the image's canonical stream, so the image is not
// sealed on them; the canonical stream still parses sealed.
TEST(UdfSerializer, NonCanonicalStreamsParseUnsealed) {
  const std::vector<std::uint8_t> canonical =
      Encode({{NodeType::kDirectory, "/d", ""},
              {NodeType::kFile, "/d/f", "abc"}});
  auto sealed = Serializer::Parse(canonical);
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  ASSERT_NE(sealed->stream(), nullptr);
  EXPECT_EQ(*sealed->stream(), canonical);

  for (const auto& stream :
       {Encode({{NodeType::kFile, "/d/f", "abc"},
                {NodeType::kDirectory, "/d", ""}}),
        Encode({{NodeType::kFile, "/d/f", "abc"}})}) {
    auto parsed = Serializer::Parse(stream);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->stream(), nullptr);
    EXPECT_EQ(parsed->owned_payload_bytes(), 0u);
    EXPECT_EQ(*parsed->ReadFile("/d/f", 0, 3), Bytes("abc"));
    EXPECT_EQ(Serializer::Serialize(*parsed), canonical);
  }
}

// Property sweep: random trees round-trip byte-identically.
class SerializerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SerializerFuzz, RandomTreeRoundTrip) {
  Rng rng(GetParam());
  Image image("fuzz-" + std::to_string(GetParam()), kGB);
  const char* dirs[] = {"/a", "/a/b", "/c", "/c/d/e", "/f"};
  for (int i = 0; i < 40; ++i) {
    std::string dir = dirs[rng.Below(5)];
    std::string path = dir + "/file" + std::to_string(i);
    std::vector<std::uint8_t> data(rng.Below(5000));
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    const std::uint64_t logical = data.size() + rng.Below(3) * 1000;
    ROS_CHECK(image.AddFile(path, data, logical).ok());
  }
  image.Close();

  auto bytes = Serializer::Serialize(image);
  auto parsed = Serializer::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(Serializer::Serialize(*parsed), bytes);
  EXPECT_EQ(parsed->file_count(), image.file_count());
  EXPECT_EQ(parsed->used_bytes(), image.used_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace ros::udf
