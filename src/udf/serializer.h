// Byte-level serialization of UDF images.
//
// Closed disc images are burned to media as a self-describing byte stream:
// a volume descriptor, one record per node (pre-order), and an anchor with
// a CRC32 of the whole stream. A scan of survived discs parses these
// streams to rebuild the global namespace (§4.4) even with every other
// component of ROS destroyed.
//
// Format (little-endian):
//   [magic "ROSUDF01"] [u32 version] [u32 id_len] [id bytes]
//   [u64 capacity] [u64 node_count]
//   node*: [u8 type] [u32 path_len] [path] then per type:
//     file: [u64 logical_size] [u64 data_len] [data bytes]
//     link: [u32 target_len] [target]
//     dir:  (nothing)
//   [u32 crc32 of everything before the anchor] [magic "ROSUDFED"]
#ifndef ROS_SRC_UDF_SERIALIZER_H_
#define ROS_SRC_UDF_SERIALIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/shared_bytes.h"
#include "src/common/status.h"
#include "src/udf/image.h"

namespace ros::udf {

class Serializer {
 public:
  // Serializes the image's directory tree and payloads. The result is the
  // byte stream burned to a disc (sparse: real payload bytes only; the
  // image's logical size is carried in the header records).
  static std::vector<std::uint8_t> Serialize(const Image& image);

  // Closes `image` and serializes it, rebinding its file nodes onto the
  // result in the same walk: their own payload buffers are freed, and the
  // returned stream (also image.stream()) is the image's one copy.
  static SharedBytes Seal(Image& image);

  // Parses a serialized image; verifies magic and CRC. Copies `bytes`
  // once, into one buffer that the result then views as below.
  static StatusOr<Image> Parse(std::span<const std::uint8_t> bytes);

  // Parses `bytes`, which lie inside `*owner`, in place: file nodes view
  // `bytes` instead of copying them, and the image keeps `owner` alive.
  // The image is sealed on `owner` when `bytes` is all of it and is
  // exactly the stream Serialize would write for the parsed image.
  static StatusOr<Image> Parse(std::span<const std::uint8_t> bytes,
                               const SharedBytes& owner);

  // Parses all of `*owner` in place.
  static StatusOr<Image> Parse(const SharedBytes& owner) {
    return Parse(BytesOf(owner), owner);
  }
};

}  // namespace ros::udf

#endif  // ROS_SRC_UDF_SERIALIZER_H_
