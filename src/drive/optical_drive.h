// Optical drive model (§3.3, §5.4).
//
// Each drive holds at most one disc. Reading requires the drive to be awake
// (2 s wake/mount from the sleep state), the disc's session to be mounted
// into the local VFS (220 ms), and per-file seeks (~100 ms when the head
// moves between files). Burning follows the media's zoned speed profile
// (speed_profile.h) in chunks, can be interrupted between chunks (§4.8's
// append-burn policy), and shares the controller's HBA write bandwidth with
// the other drives of its set (drive_set.h), which produces Figure 9's
// aggregate curve.
#ifndef ROS_SRC_DRIVE_OPTICAL_DRIVE_H_
#define ROS_SRC_DRIVE_OPTICAL_DRIVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/drive/disc.h"
#include "src/drive/speed_profile.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace ros::drive {

// A burned image's stored stream, viewed in place: `bytes` lie inside
// `*owner` (a session's payload), which keeps them alive after the disc
// moves on. `owner` is null for a session that stores no bytes.
struct StreamView {
  std::span<const std::uint8_t> bytes;
  SharedBytes owner;
};

struct DriveTimings {
  sim::Duration wake = sim::Seconds(2.0);        // sleep -> disc mounted
  sim::Duration vfs_mount = sim::Millis(220);    // mount session into VFS
  sim::Duration seek = sim::Millis(100);         // head move between files
  // Formatting the reserved metadata zone ahead of time, required for the
  // append-burn (pseudo-overwrite) mode (§2.1: "tens of seconds").
  sim::Duration format_metadata_zone = sim::Seconds(30.0);
};

// Capacity sacrificed to the reserved metadata zone in append-burn mode:
// 256 MB on full-size media, proportionally less on capacity-overridden
// test media.
inline constexpr std::uint64_t kMetadataZoneBytes = 256 * kMB;
constexpr std::uint64_t MetadataZoneBytes(std::uint64_t capacity) {
  const std::uint64_t proportional = capacity / 64;
  return proportional < kMetadataZoneBytes ? proportional
                                           : kMetadataZoneBytes;
}

enum class DriveState { kEmpty, kSleeping, kReady, kReading, kBurning };

struct BurnOptions {
  bool close_session = true;  // write-all-once default
  bool append_mode = false;   // pre-format metadata zone, allow interrupt
};

struct BurnResult {
  bool completed = false;       // false => interrupted
  std::uint64_t bytes_burned = 0;
};

class DriveSet;

class OpticalDrive {
 public:
  OpticalDrive(sim::Simulator& sim, DriveSet* set, int id,
               DriveTimings timings = {})
      : sim_(sim), set_(set), id_(id), timings_(timings) {}

  int id() const { return id_; }
  DriveState state() const { return state_; }
  bool has_disc() const { return disc_ != nullptr; }
  Disc* disc() { return disc_; }
  const Disc* disc() const { return disc_; }

  // Mechanical insertion/removal; the separation/collection delay is
  // charged by mech::Library, so these are instantaneous bookkeeping.
  // The drive does not own the media: the rack inventory does.
  Status InsertDisc(Disc* disc);
  StatusOr<Disc*> EjectDisc();

  // Spins the drive down; the next access pays the wake delay.
  void Sleep();

  // Wakes the drive and mounts the disc (2 s if sleeping, else free).
  sim::Task<Status> EnsureAwake();

  // Mounts the disc's file system into the local VFS (220 ms, idempotent
  // until the disc changes or the drive sleeps).
  sim::Task<Status> MountVfs();

  bool vfs_mounted() const { return vfs_mounted_; }

  // Drops the VFS mount without spinning down (e.g. after a media change
  // or an unmount by the administrator); the next access pays the 220 ms
  // mount again.
  void InvalidateVfs() {
    vfs_mounted_ = false;
    last_read_image_.clear();
  }

  // Reads from a burned session. Charges wake/mount as needed, a seek when
  // the head moves between files, and the media transfer time (subject to
  // the drive set's shared-HBA read efficiency).
  sim::Task<StatusOr<std::vector<std::uint8_t>>> Read(std::string image_id,
                                                      std::uint64_t offset,
                                                      std::uint64_t length);

  // Read's whole path (mount, seek, transfer, aging, latent errors and
  // the corruption check, with the same errors and counters) without
  // copying the bytes out: for readers that only charge the optical time.
  sim::Task<Status> ChargeRead(std::string image_id, std::uint64_t offset,
                               std::uint64_t length);

  // Reads one burned image's whole serialized stream, the one timed way
  // an image stream comes off a disc. Mounts, looks up the session, charges
  // Read(image_id, 0, max(1, n)) for the session's n stored bytes, and
  // returns a view of exactly those n bytes on the media, with the
  // session's payload as their owner: nothing is copied. kNotFound if the
  // disc does not hold the image (after the mount is charged), kDataLoss
  // on a corrupted sector, kFailedPrecondition on an empty drive.
  sim::Task<StatusOr<StreamView>> ReadImageStream(std::string image_id);

  // Burns one disc image as a session. Payload may be sparse (shorter than
  // `logical_size`) and is shared, not copied, with the session that
  // records it; timing uses the logical size. In append mode the first
  // burn on a blank disc formats the metadata zone first, and the burn can
  // be interrupted between chunks via RequestInterrupt(), leaving an open
  // session that a later BurnImage on the same image resumes.
  sim::Task<StatusOr<BurnResult>> BurnImage(std::string image_id,
                                            std::uint64_t logical_size,
                                            SharedBytes payload,
                                            BurnOptions options = {});

  // Asks an in-flight burn to stop at the next chunk boundary.
  void RequestInterrupt() { interrupt_requested_ = true; }

  // Installs the fault injector consulted per burn (kBurnFailure) and per
  // read (kLatentSectorError: the sector under the head rots, surfacing
  // as kDataLoss from the session CRC). Site: "drive:<id>".
  void set_fault_injector(sim::FaultInjector* faults) {
    faults_ = faults;
    fault_site_ = "drive:" + std::to_string(id_);
  }

  // Installs the media-aging model (DESIGN.md §5j): every read first
  // materializes the disc's accrued latent errors and feeds the age-scaled
  // extra read-fault rate into the injector hook. Not owned; the params
  // must outlive the drive. nullptr (or enabled=false) is byte-identical
  // to no model at all.
  void set_aging_model(const MediaAgingParams* aging) { aging_ = aging; }

  // Observer for burn progress, used by the figure benches:
  // called as (progress_fraction, instantaneous_speed_x).
  std::function<void(double, double)> burn_observer;

  // Telemetry.
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_burned() const { return bytes_burned_; }
  sim::Duration busy_time() const { return busy_time_; }

 private:
  friend class DriveSet;

  // The one body of Read and ChargeRead: charges the read and returns the
  // checked session, which the caller may copy from before it suspends.
  sim::Task<StatusOr<const Session*>> TimedRead(std::string image_id,
                                                std::uint64_t offset,
                                                std::uint64_t length);

  sim::Simulator& sim_;
  DriveSet* set_;  // may be null for a standalone drive
  int id_;
  DriveTimings timings_;
  DriveState state_ = DriveState::kEmpty;
  Disc* disc_ = nullptr;
  sim::FaultInjector* faults_ = nullptr;
  const MediaAgingParams* aging_ = nullptr;
  std::string fault_site_;
  bool vfs_mounted_ = false;
  bool interrupt_requested_ = false;
  std::string last_read_image_;
  std::uint64_t last_read_end_ = 0;

  // Current desired burn rate (bytes/s) while burning; used by DriveSet's
  // bandwidth arbiter.
  double desired_burn_rate_ = 0.0;

  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_burned_ = 0;
  sim::Duration busy_time_ = 0;
};

// A set of 12 drives sharing HBA bandwidth (§3.3). Reads lose a small
// fraction of per-drive speed as more drives read concurrently (Table 2:
// 12 x 24.1 MB/s -> 282.5 MB/s aggregate); burns share a write-path cap
// that shapes Figure 9's aggregate curve.
class DriveSet {
 public:
  static constexpr int kDrivesPerSet = 12;
  // Aggregate burn-path cap across one set (calibrated to Fig 9's ~380 MB/s
  // observed peak).
  static constexpr double kBurnBandwidthCap = 380e6;
  // Per-additional-reader efficiency loss (calibrated to Table 2).
  static constexpr double kReadContentionPerDrive = 0.00215;

  DriveSet(sim::Simulator& sim, int id, DriveTimings timings = {});

  int id() const { return id_; }
  OpticalDrive& drive(int i) { return *drives_.at(i); }
  const OpticalDrive& drive(int i) const { return *drives_.at(i); }
  int size() const { return static_cast<int>(drives_.size()); }

  // Finds the drive whose disc holds `image_id`, if any.
  OpticalDrive* FindImage(const std::string& image_id);

  // --- bandwidth arbitration (used by OpticalDrive) ---
  double EffectiveReadRate(double single_rate) const;
  double EffectiveBurnRate(double desired) const;
  void AddReader() { ++active_readers_; }
  void RemoveReader() { --active_readers_; }

  int active_readers() const { return active_readers_; }
  int active_burners() const;
  double total_desired_burn_rate() const;

 private:
  sim::Simulator& sim_;
  int id_;
  std::vector<std::unique_ptr<OpticalDrive>> drives_;
  int active_readers_ = 0;
};

}  // namespace ros::drive

#endif  // ROS_SRC_DRIVE_OPTICAL_DRIVE_H_
