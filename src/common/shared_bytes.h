// Immutable byte buffers shared by reference.
//
// A closed WORM image's serialized stream is the same bytes for its image
// record, the parity sweep, the audit manifest and every disc session
// burned from it, so they all hold one SharedBytes instead of copies
// (DESIGN.md §5l). Holders never write through it; a holder that must
// change bytes (Disc::TamperSessionData) copies first.
#ifndef ROS_SRC_COMMON_SHARED_BYTES_H_
#define ROS_SRC_COMMON_SHARED_BYTES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace ros {

using SharedBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

inline SharedBytes MakeSharedBytes(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

// The bytes of `b`, or an empty span for a null buffer.
inline std::span<const std::uint8_t> BytesOf(const SharedBytes& b) {
  if (b == nullptr) {
    return {};
  }
  return {b->data(), b->size()};
}

}  // namespace ros

#endif  // ROS_SRC_COMMON_SHARED_BYTES_H_
