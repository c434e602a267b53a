#include "src/udf/serializer.h"

#include <cstring>

#include "src/common/hash.h"

namespace ros::udf {

namespace {

constexpr char kMagic[8] = {'R', 'O', 'S', 'U', 'D', 'F', '0', '1'};
constexpr char kAnchor[8] = {'R', 'O', 'S', 'U', 'D', 'F', 'E', 'D'};
constexpr std::uint32_t kVersion = 1;

// Writers append into a buffer Serialize has already reserved to its exact
// final size, so they never reallocate.
void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  out.insert(out.end(), bytes, bytes + 4);
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

void PutStr(std::vector<std::uint8_t>& out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// Serialized size of one node record (see the format in serializer.h).
std::size_t NodeRecordBytes(const std::string& path, const Node& node) {
  std::size_t n = 1 + 4 + path.size();
  switch (node.type) {
    case NodeType::kFile:
      n += 8 + 8 + node.data.size();
      break;
    case NodeType::kLink:
      n += 4 + node.link_target_image.size();
      break;
    case NodeType::kDirectory:
      break;
  }
  return n;
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  // All bounds checks are written as `n > remaining()` rather than
  // `pos_ + n > size()`: length fields come straight off (possibly
  // corrupted) media, and `pos_ + n` can wrap around for a hostile u64.
  std::size_t remaining() const { return bytes_.size() - pos_; }

  StatusOr<std::uint32_t> U32() {
    if (remaining() < 4) {
      return DataLossError("truncated image stream (u32)");
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  StatusOr<std::uint64_t> U64() {
    if (remaining() < 8) {
      return DataLossError("truncated image stream (u64)");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  StatusOr<std::uint8_t> U8() {
    if (remaining() < 1) {
      return DataLossError("truncated image stream (u8)");
    }
    return bytes_[pos_++];
  }

  StatusOr<std::string> Str() {
    ROS_ASSIGN_OR_RETURN(std::uint32_t n, U32());
    if (n > remaining()) {
      return DataLossError("truncated image stream (string)");
    }
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  StatusOr<std::vector<std::uint8_t>> Bytes(std::uint64_t n) {
    if (n > remaining()) {
      return DataLossError("truncated image stream (payload)");
    }
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  Status Expect(std::span<const char> magic) {
    if (magic.size() > remaining() ||
        std::memcmp(bytes_.data() + pos_, magic.data(), magic.size()) != 0) {
      return DataLossError("bad magic in image stream");
    }
    pos_ += magic.size();
    return OkStatus();
  }

  std::size_t pos() const { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> Serializer::Serialize(const Image& image) {
  // One sizing walk, so the stream is built in one exact allocation.
  std::uint64_t node_count = 0;
  std::size_t body_bytes = 0;
  image.Walk([&](const std::string& path, const Node& node) {
    ++node_count;
    body_bytes += NodeRecordBytes(path, node);
  });
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(kMagic) + 4 + 4 + image.id().size() + 8 + 8 +
              body_bytes + 4 + sizeof(kAnchor));

  out.assign(kMagic, kMagic + sizeof(kMagic));
  PutU32(out, kVersion);
  PutStr(out, image.id());
  PutU64(out, image.capacity());
  PutU64(out, node_count);

  image.Walk([&](const std::string& path, const Node& node) {
    out.push_back(static_cast<std::uint8_t>(node.type));
    PutStr(out, path);
    switch (node.type) {
      case NodeType::kFile:
        PutU64(out, node.logical_size);
        PutU64(out, node.data.size());
        out.insert(out.end(), node.data.begin(), node.data.end());
        break;
      case NodeType::kLink:
        PutStr(out, node.link_target_image);
        break;
      case NodeType::kDirectory:
        break;
    }
  });

  PutU32(out, Crc32(out));
  out.insert(out.end(), kAnchor, kAnchor + sizeof(kAnchor));
  return out;
}

StatusOr<Image> Serializer::Parse(std::span<const std::uint8_t> bytes) {
  Reader reader(bytes);
  ROS_RETURN_IF_ERROR(reader.Expect({kMagic, sizeof(kMagic)}));
  ROS_ASSIGN_OR_RETURN(std::uint32_t version, reader.U32());
  if (version != kVersion) {
    return DataLossError("unsupported image version");
  }
  ROS_ASSIGN_OR_RETURN(std::string id, reader.Str());
  ROS_ASSIGN_OR_RETURN(std::uint64_t capacity, reader.U64());
  ROS_ASSIGN_OR_RETURN(std::uint64_t node_count, reader.U64());

  Image image(id, capacity);
  // Rebuild errors (duplicate paths, entries that no longer fit the declared
  // capacity, non-absolute paths) all mean the stream is not something the
  // serializer ever wrote: report them uniformly as media corruption.
  auto corrupt = [](const Status& status) {
    return DataLossError("corrupt image stream: " + status.ToString());
  };
  for (std::uint64_t i = 0; i < node_count; ++i) {
    ROS_ASSIGN_OR_RETURN(std::uint8_t type_byte, reader.U8());
    if (type_byte > static_cast<std::uint8_t>(NodeType::kLink)) {
      return DataLossError("bad node type");
    }
    const NodeType type = static_cast<NodeType>(type_byte);
    ROS_ASSIGN_OR_RETURN(std::string path, reader.Str());
    switch (type) {
      case NodeType::kDirectory: {
        Status status = image.MakeDirs(path);
        if (!status.ok()) {
          return corrupt(status);
        }
        break;
      }
      case NodeType::kFile: {
        ROS_ASSIGN_OR_RETURN(std::uint64_t logical, reader.U64());
        ROS_ASSIGN_OR_RETURN(std::uint64_t data_len, reader.U64());
        ROS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> data,
                             reader.Bytes(data_len));
        Status status = image.AddFile(path, std::move(data), logical);
        if (!status.ok()) {
          return corrupt(status);
        }
        break;
      }
      case NodeType::kLink: {
        ROS_ASSIGN_OR_RETURN(std::string target, reader.Str());
        Status status = image.AddLink(path, std::move(target));
        if (!status.ok()) {
          return corrupt(status);
        }
        break;
      }
    }
  }

  const std::uint32_t computed = Crc32(bytes.subspan(0, reader.pos()));
  ROS_ASSIGN_OR_RETURN(std::uint32_t stored, reader.U32());
  if (computed != stored) {
    return DataLossError("image CRC mismatch");
  }
  ROS_RETURN_IF_ERROR(reader.Expect({kAnchor, sizeof(kAnchor)}));
  image.Close();
  return image;
}

}  // namespace ros::udf
