// Deep scrub + refresh migration pipeline (DESIGN.md §5j).
//
// Decades-scale preservation turns scrubbing from an afterthought into
// the system's heartbeat: latent sector errors accumulate with media age
// (drive::MediaAgingParams), and the only defence is to read the data
// back before the damage exceeds what the array's parity can absorb.
// ScrubManager walks every burned disc array on a sim-time schedule,
// reading each member back at read speed through the fetch scheduler's
// *background* class (never starving foreground reads), repairing
// damaged members from parity, and — when an array shows damage or
// crosses the refresh-age threshold — re-burning the whole array onto
// fresh media (a disc-to-disc refresh). Generation migration piggybacks
// on refresh: the first refresh burn can switch the rack's media type so
// rotting first-generation media is rewritten onto denser, younger
// stock.
//
// It also owns media repair, for the scrub and for degraded reads alike:
// RecoverImage rebuilds one image from its array's surviving members and
// parity (§4.7), and RepairImage stages the rebuilt image back into the
// disk buffer so it burns onto fresh media.
//
// And it owns physical audit verification: RunAudit samples leaves of
// the persisted Merkle manifests (audit.h) off the media and recomputes
// their hashes, certifying integrity while reading only a small fraction
// of the stored bytes.
#ifndef ROS_SRC_OLFS_SCRUB_H_
#define ROS_SRC_OLFS_SCRUB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/drive/optical_drive.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/udf/image.h"

namespace ros::olfs {

class Olfs;

// One scrub pass over every burned array.
struct ScrubPassReport {
  int arrays = 0;            // arrays walked
  int images = 0;            // member images read back
  std::uint64_t bytes = 0;   // stream bytes verified at read speed
  int repairs = 0;           // damaged members rebuilt from parity
  int arrays_refreshed = 0;  // whole arrays re-burned onto fresh media
  int refresh_burns = 0;     // member images re-staged by refresh
};

// One sampled audit over every live manifest.
struct AuditReport {
  int manifests = 0;                  // manifests verified
  int members = 0;                    // member trees sampled
  std::uint64_t leaves_sampled = 0;   // leaf reads performed
  std::uint64_t bytes_read = 0;       // optical bytes fetched for proof
  std::uint64_t stored_bytes = 0;     // total bytes the manifests cover
  std::uint64_t mismatches = 0;       // leaves whose hash failed to chain
  std::vector<std::string> damaged;   // member ids with failed leaves
};

class ScrubManager {
 public:
  ScrubManager(sim::Simulator& sim, Olfs* olfs) : sim_(sim), olfs_(olfs) {}

  // Walks every burned array: background-class fetch of each member,
  // full-stream read-back (which is also what materializes media aging in
  // sim time), parity repair of damaged members, and refresh burns per
  // the policy knobs (scrub_refresh_enabled, refresh_age_years,
  // generation_migration_enabled). Ends with a pipeline drain when any
  // refresh was staged, so the pass leaves the rack fully burned.
  sim::Task<StatusOr<ScrubPassReport>> RunPass();

  // Samples `sample_fraction` of each manifest member's leaves (at least
  // one per member) off the media and verifies them against the stored
  // hash chain. Deterministic for a given seed. Detects any corruption
  // of a sampled leaf; the report's bytes_read / stored_bytes ratio is
  // the auditor's cost.
  sim::Task<StatusOr<AuditReport>> RunAudit(double sample_fraction,
                                            std::uint64_t seed);

  // Metadata-level sweep (§4.7): checks every burned data disc for sector
  // errors and recovers each damaged image from its array's parity onto
  // fresh media. Returns the repaired image count. (RunPass is the
  // scheduled deep scrub that reads the media back.)
  sim::Task<StatusOr<int>> ScrubAndRepair();

  // RecoverImage, then RepairImage.
  sim::Task<Status> RecoverAndRepairImage(std::string image_id);

  // Rebuilds the full serialized stream of a damaged or unreachable image
  // from its array's surviving members + parity and parses it. Charges
  // the optical reads of every surviving member; counts a reconstruction.
  sim::Task<StatusOr<std::shared_ptr<udf::Image>>> RecoverImage(
      std::string image_id);

  // Stages a recovered image back into the disk buffer (tier kBuffered)
  // and queues its re-burn onto fresh media.
  sim::Task<Status> RepairImage(std::string image_id,
                                std::shared_ptr<udf::Image> image);

  // Lifetime counters (surfaced by the maintenance report), from the
  // self-healing RecoverImage/RepairImage to the audit.
  std::uint64_t reconstructions() const { return reconstructions_; }
  std::uint64_t images_repaired() const { return images_repaired_; }
  std::uint64_t passes() const { return passes_; }
  std::uint64_t scrubbed_bytes() const { return scrubbed_bytes_; }
  std::uint64_t scrub_repairs() const { return scrub_repairs_; }
  std::uint64_t refresh_burns() const { return refresh_burns_; }
  std::uint64_t arrays_refreshed() const { return arrays_refreshed_; }
  std::uint64_t audit_leaves_sampled() const { return audit_leaves_sampled_; }
  std::uint64_t audit_bytes_read() const { return audit_bytes_read_; }
  std::uint64_t audit_mismatches() const { return audit_mismatches_; }

 private:
  // Reads one member's full stream back through a background lease and
  // returns it in place. kDataLoss when the media is damaged in range;
  // other codes are mech trouble.
  sim::Task<StatusOr<drive::StreamView>> ReadBack(std::string image_id);

  // Refresh burn (DESIGN.md §5j): re-stages a *healthy* burned image so
  // the pipeline re-burns it onto fresh media — from the cached copy when
  // one exists, else a disc-to-disc read through the scheduler's
  // background class, else parity reconstruction.
  sim::Task<Status> RefreshImage(std::string image_id);

  // The serialized stream RecoverImage parses, rebuilt from the surviving
  // members' streams, read in place off their discs.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReconstructFromParity(
      std::string image_id);

  // Re-burns one array onto fresh media: damaged data members through
  // parity recovery, clean ones as refresh burns; retires the old tray.
  sim::Task<Status> RefreshArray(int tray_index,
                                 std::vector<std::string> member_ids,
                                 std::vector<std::string> damaged,
                                 ScrubPassReport* report);

  sim::Simulator& sim_;
  Olfs* olfs_;
  bool migrated_ = false;  // generation migration fires once
  int repaired_generation_ = 0;  // keeps repair buffer files unique
  std::uint64_t reconstructions_ = 0;
  std::uint64_t images_repaired_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t scrubbed_bytes_ = 0;
  std::uint64_t scrub_repairs_ = 0;
  std::uint64_t refresh_burns_ = 0;
  std::uint64_t arrays_refreshed_ = 0;
  std::uint64_t audit_leaves_sampled_ = 0;
  std::uint64_t audit_bytes_read_ = 0;
  std::uint64_t audit_mismatches_ = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_SCRUB_H_
