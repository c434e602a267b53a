// Physical geometry of the ROS rack (§3.2).
//
// A 42U rack holds 1 or 2 rollers. Each roller is a 1.67 m rotatable
// cylinder with 85 layers; each layer has 6 lotus-arranged trays; each tray
// holds a vertical stack of 12 discs (a "disc array"). 85 * 6 = 510 trays,
// 6120 discs per roller, 12240 per rack.
#ifndef ROS_SRC_MECH_GEOMETRY_H_
#define ROS_SRC_MECH_GEOMETRY_H_

#include <compare>
#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace ros::mech {

inline constexpr int kLayersPerRoller = 85;
inline constexpr int kSlotsPerLayer = 6;
inline constexpr int kDiscsPerTray = 12;
inline constexpr int kTraysPerRoller = kLayersPerRoller * kSlotsPerLayer;  // 510
inline constexpr int kDiscsPerRoller = kTraysPerRoller * kDiscsPerTray;   // 6120
inline constexpr int kMaxRollers = 2;
inline constexpr int kMaxDiscsPerRack = kMaxRollers * kDiscsPerRoller;    // 12240

// Layer 0 is the uppermost layer (where the robotic arm parks).
struct TrayAddress {
  int roller = 0;
  int layer = 0;
  int slot = 0;

  auto operator<=>(const TrayAddress&) const = default;

  bool IsValid(int rollers = kMaxRollers) const {
    return roller >= 0 && roller < rollers && layer >= 0 &&
           layer < kLayersPerRoller && slot >= 0 && slot < kSlotsPerLayer;
  }

  // Dense index within the rack, used for DAindex bookkeeping.
  int ToIndex() const {
    return (roller * kLayersPerRoller + layer) * kSlotsPerLayer + slot;
  }

  static TrayAddress FromIndex(int index) {
    TrayAddress addr;
    addr.slot = index % kSlotsPerLayer;
    index /= kSlotsPerLayer;
    addr.layer = index % kLayersPerRoller;
    addr.roller = index / kLayersPerRoller;
    return addr;
  }

  // Appended piecewise: `"r" + std::to_string(...)` prepends into the
  // temporary, which GCC 12 at -O3 misreports as an overlapping copy.
  std::string ToString() const {
    std::string out = "r";
    out += std::to_string(roller);
    out += "/L";
    out += std::to_string(layer);
    out += "/s";
    out += std::to_string(slot);
    return out;
  }
};

// One disc within a tray; index 0 is the bottom disc (separated first).
struct DiscAddress {
  TrayAddress tray;
  int index = 0;

  auto operator<=>(const DiscAddress&) const = default;

  bool IsValid(int rollers = kMaxRollers) const {
    return tray.IsValid(rollers) && index >= 0 && index < kDiscsPerTray;
  }

  int ToIndex() const { return tray.ToIndex() * kDiscsPerTray + index; }

  static DiscAddress FromIndex(int index) {
    DiscAddress addr;
    addr.index = index % kDiscsPerTray;
    addr.tray = TrayAddress::FromIndex(index / kDiscsPerTray);
    return addr;
  }

  std::string ToString() const {
    return tray.ToString() + "/d" + std::to_string(index);
  }
};

// Angular distance, in slots, the roller must rotate so `slot` faces the
// robotic arm when `current` currently faces it. The roller rotates both
// ways, so the worst case is 3 of 6 slots (a half turn).
constexpr int SlotDistance(int current, int slot) {
  int d = slot - current;
  if (d < 0) {
    d = -d;
  }
  if (d > kSlotsPerLayer / 2) {
    d = kSlotsPerLayer - d;
  }
  return d;
}

}  // namespace ros::mech

#endif  // ROS_SRC_MECH_GEOMETRY_H_
