// The burned-tier read path (§4.1): a read that misses the disk buffer
// fetches the disc array through the FetchScheduler (its only way to a
// drive), mounts the image's UDF volume, parses it once per mount (the
// in-kernel UDF view) and charges the optical transfer of the file's
// bytes; concurrent reads of one image share one drive read. Around that
// core: the file cache and its sibling prefetch, the predictive tray
// prefetch, the whole-tray readahead of scans, and the degraded read that
// rebuilds a damaged image from parity through ScrubManager.
#ifndef ROS_SRC_OLFS_IMAGE_READER_H_
#define ROS_SRC_OLFS_IMAGE_READER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/olfs/file_cache.h"
#include "src/olfs/hints.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/udf/image.h"

namespace ros::olfs {

class Olfs;

class ImageReader {
 public:
  // Reaches the rest of the rack (image store, caches, fetch manager,
  // scrub manager) through the facade that owns it.
  ImageReader(sim::Simulator& sim, Olfs* olfs);

  // Reads `length` bytes at `offset` of `internal_path` in a burned-only
  // image. A tagged hint feeds the tray predictor; a scan hint also stages
  // the tray's sibling images into the read cache.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> Read(
      std::string image_id, std::string internal_path, std::uint64_t offset,
      std::uint64_t length, AccessHint hint);

  // The cached parsed view of a disc-mounted image; null if not mounted.
  std::shared_ptr<udf::Image> DiscMount(const std::string& image_id) const {
    auto it = disc_mounts_.find(image_id);
    return it == disc_mounts_.end() ? nullptr : it->second;
  }
  // Drops the cached parsed view of one image (it was re-staged, or a
  // bench stages Table 1's scenarios with OpticalDrive::InvalidateVfs),
  // or of every image (the namespace is rebuilt from the discs).
  void DropDiscMount(const std::string& image_id) {
    disc_mounts_.erase(image_id);
  }
  void DropDiscMounts() { disc_mounts_.clear(); }

  // True when no detached prefetch or readahead task is running; Olfs
  // waits for it before a mid-simulation teardown.
  bool Idle() const { return detached_tasks_ == 0; }

  FileCache& file_cache() { return file_cache_; }

  // Reads served degraded (parity rebuilt the unreadable image).
  std::uint64_t degraded_reads() const { return degraded_reads_; }
  // Reads of a disc image served from a concurrent reader's in-flight
  // drive read instead of re-reading media.
  std::uint64_t shared_image_reads() const { return shared_image_reads_; }
  // Whole-tray readahead: sibling images staged into the read cache behind
  // scan-hinted reads, and their logical bytes.
  std::uint64_t readahead_images() const { return readahead_images_; }
  std::uint64_t readahead_bytes() const { return readahead_bytes_; }

 private:
  // ReadShared's `file_bytes` for a readahead: charge the whole stream.
  static constexpr std::uint64_t kWholeStream = ~std::uint64_t{0};

  // A parsed view of an image and whether this caller's drive read made
  // it (false: it came from a concurrent reader or an earlier mount).
  struct SharedView {
    std::shared_ptr<udf::Image> image;
    bool led = false;
  };

  // The one way to read an image off its disc. Waits out a concurrent
  // read of the same image and shares the view it produced; otherwise
  // leads (ReadLeader): fetch, mount, parse once per mount into
  // disc_mounts_, and charge `file_bytes` of optical transfer (capped at
  // the session's size), or the whole stream for kWholeStream. A readahead
  // (kWholeStream) also takes a view that is already mounted without a
  // drive read.
  sim::Task<StatusOr<SharedView>> ReadShared(std::string image_id,
                                             std::uint64_t file_bytes);
  sim::Task<StatusOr<std::shared_ptr<udf::Image>>> ReadLeader(
      std::string image_id, std::uint64_t file_bytes);

  // Background file-cache population: pulls the whole file (and up to
  // prefetch_siblings directory neighbours) off the fetched disc.
  sim::Task<void> PrefetchTask(std::string image_id,
                               std::string internal_path);

  // Whole-tray readahead (scan hint): stages burned sibling images of the
  // tray just fetched into the read cache's probationary segment, so the
  // rest of the scan reads from the disk buffer instead of re-fetching
  // the tray after an eviction.
  sim::Task<void> TrayReadaheadTask(std::string image_id, int tray_index);
  // Reads one sibling's full stream (shared with concurrent readers) and
  // re-admits it as kBurnedCached.
  sim::Task<Status> StageSiblingImage(std::string image_id);

  // Counts a detached task's frame for Idle().
  sim::Task<void> TrackDetached(sim::Task<void> task);

  sim::Simulator& sim_;
  Olfs* olfs_;
  FileCache file_cache_;

  // Parsed metadata of disc-mounted images (the in-kernel UDF view).
  std::map<std::string, std::shared_ptr<udf::Image>> disc_mounts_;
  // Image-level read single-flight: image id -> completion event of the
  // drive read currently in flight.
  std::map<std::string, std::shared_ptr<sim::Event>> image_reads_;

  // Whole-tray readahead: in-flight trays (dedup), staged counters, and a
  // generation suffix keeping staged buffer files unique.
  std::set<int> readahead_trays_;
  int readahead_generation_ = 0;
  std::uint64_t degraded_reads_ = 0;
  std::uint64_t shared_image_reads_ = 0;
  std::uint64_t readahead_images_ = 0;
  std::uint64_t readahead_bytes_ = 0;
  int detached_tasks_ = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_IMAGE_READER_H_
