#include "src/udf/serializer.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

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
      n += 8 + 8 + node.bytes().size();
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

  StatusOr<std::span<const std::uint8_t>> View(std::uint64_t n) {
    if (n > remaining()) {
      return DataLossError("truncated image stream (payload)");
    }
    const std::span<const std::uint8_t> out = bytes_.subspan(pos_, n);
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

// An empty stream reserved to the image's exact serialized size (one
// sizing walk), holding the header.
std::vector<std::uint8_t> StartStream(const Image& image) {
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
  return out;
}

// Appends one node record, in Image::Walk order.
void PutNode(std::vector<std::uint8_t>& out, const std::string& path,
             const Node& node) {
  out.push_back(static_cast<std::uint8_t>(node.type));
  PutStr(out, path);
  switch (node.type) {
    case NodeType::kFile: {
      const std::span<const std::uint8_t> payload = node.bytes();
      PutU64(out, node.logical_size);
      PutU64(out, payload.size());
      out.insert(out.end(), payload.begin(), payload.end());
      break;
    }
    case NodeType::kLink:
      PutStr(out, node.link_target_image);
      break;
    case NodeType::kDirectory:
      break;
  }
}

void FinishStream(std::vector<std::uint8_t>& out) {
  PutU32(out, Crc32(out));
  out.insert(out.end(), kAnchor, kAnchor + sizeof(kAnchor));
}

// `bytes` lies inside `whole`.
bool Within(std::span<const std::uint8_t> bytes,
            std::span<const std::uint8_t> whole) {
  const std::less_equal<const std::uint8_t*> le;
  return bytes.empty() ||
         (le(whole.data(), bytes.data()) &&
          le(bytes.data() + bytes.size(), whole.data() + whole.size()));
}

}  // namespace

std::vector<std::uint8_t> Serializer::Serialize(const Image& image) {
  std::vector<std::uint8_t> out = StartStream(image);
  image.Walk([&out](const std::string& path, const Node& node) {
    PutNode(out, path, node);
  });
  FinishStream(out);
  return out;
}

SharedBytes Serializer::Seal(Image& image) {
  // Built in place behind the shared pointer, reserved to its final size:
  // the views taken during the walk stay valid.
  auto stream = std::make_shared<std::vector<std::uint8_t>>(StartStream(image));
  image.WalkMutable([&stream](const std::string& path, Node& node) {
    PutNode(*stream, path, node);
    if (node.type == NodeType::kFile) {
      const std::size_t n = node.bytes().size();
      node.view_ = {stream->data() + stream->size() - n, n};
      std::vector<std::uint8_t>().swap(node.owned_);
    }
  });
  FinishStream(*stream);
  image.backing_ = std::move(stream);
  image.sealed_ = true;
  image.Close();
  return image.backing_;
}

StatusOr<Image> Serializer::Parse(std::span<const std::uint8_t> bytes) {
  return Parse(
      MakeSharedBytes(std::vector<std::uint8_t>(bytes.begin(), bytes.end())));
}

StatusOr<Image> Serializer::Parse(std::span<const std::uint8_t> bytes,
                                  const SharedBytes& owner) {
  ROS_CHECK(Within(bytes, BytesOf(owner)));
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
  // Record paths in stream order, to tell whether the stream is the one
  // Serialize writes for the rebuilt image. `node_count` comes off the
  // media; every record takes at least its type byte and path length.
  std::vector<std::string> record_paths;
  record_paths.reserve(
      std::min<std::uint64_t>(node_count, reader.remaining() / 5));
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
        ROS_ASSIGN_OR_RETURN(std::span<const std::uint8_t> payload,
                             reader.View(data_len));
        auto node = image.NewFile(path, payload.size(), logical);
        if (!node.ok()) {
          return corrupt(node.status());
        }
        (*node)->view_ = payload;
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
    record_paths.push_back(std::move(path));
  }

  const std::uint32_t computed = Crc32(bytes.subspan(0, reader.pos()));
  ROS_ASSIGN_OR_RETURN(std::uint32_t stored, reader.U32());
  if (computed != stored) {
    return DataLossError("image CRC mismatch");
  }
  ROS_RETURN_IF_ERROR(reader.Expect({kAnchor, sizeof(kAnchor)}));

  // Every record created its own node, in walk order, exactly when the
  // walk visits the record paths in stream order; Serialize then rewrites
  // the same header, records, CRC and anchor.
  std::size_t visited = 0;
  bool in_walk_order = true;
  image.Walk([&](const std::string& path, const Node&) {
    in_walk_order = in_walk_order && visited < record_paths.size() &&
                    record_paths[visited] == path;
    ++visited;
  });
  image.backing_ = owner;
  image.sealed_ = in_walk_order && visited == record_paths.size() &&
                  reader.remaining() == 0 &&
                  bytes.size() == BytesOf(owner).size();
  image.Close();
  return image;
}

}  // namespace ros::udf
