// The Optical Library File System (OLFS) facade — the PI module (§4.1).
//
// Olfs exposes the POSIX-style global namespace and orchestrates all the
// subsystems underneath: the metadata volume (index files), preliminary
// bucket writing, delayed parity, burn/fetch task management, the read
// cache and the mechanical controller. Every operation both performs the
// real work (bytes move through the volumes, images, discs) and charges
// the paper's measured software-overhead model: ~2.5 ms per internal OLFS
// operation plus a kernel-user mode switch between consecutive operations
// (Fig 7).
#ifndef ROS_SRC_OLFS_OLFS_H_
#define ROS_SRC_OLFS_OLFS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/olfs/affinity.h"
#include "src/olfs/audit.h"
#include "src/olfs/bucket_manager.h"
#include "src/olfs/burn_manager.h"
#include "src/olfs/da_index.h"
#include "src/olfs/disc_image_store.h"
#include "src/olfs/fetch_manager.h"
#include "src/olfs/fetch_scheduler.h"
#include "src/olfs/hints.h"
#include "src/olfs/image_reader.h"
#include "src/olfs/mech_controller.h"
#include "src/olfs/metadata_volume.h"
#include "src/olfs/params.h"
#include "src/olfs/parity.h"
#include "src/olfs/read_cache.h"
#include "src/olfs/scrub.h"
#include "src/olfs/system.h"
#include "src/olfs/tray_predictor.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace ros::olfs {

struct FileInfo {
  std::uint64_t size = 0;
  int version = 0;
  bool is_directory = false;
  LocationKind location = LocationKind::kBucket;
};

class Olfs {
 public:
  Olfs(sim::Simulator& sim, RosSystem* system, OlfsParams params = {});

  // Background loops suspended in a Delay resume after the facade is
  // gone; they hold a copy of this flag and bail without touching the
  // dead object. Pair with Quiesce when tearing down mid-simulation.
  ~Olfs();

  // ------------------------------------------------------------------
  // POSIX-style interface (PI)
  // ------------------------------------------------------------------

  // Creates a new file (fails if it exists). `data` may be sparse
  // relative to `logical_size` (pass data.size() for fully-real files).
  // A tagged hint (AccessHint::stream != 0) records co-access edges so
  // the burn planner co-locates the stream's files on one tray.
  sim::Task<Status> Create(std::string path,
                           std::vector<std::uint8_t> data,
                           std::uint64_t logical_size,
                           AccessHint hint = {});
  sim::Task<Status> Create(std::string path,
                           std::vector<std::uint8_t> data);

  // Regenerating update (§4.6): writes a new version of an existing file.
  sim::Task<Status> Update(std::string path,
                           std::vector<std::uint8_t> data,
                           std::uint64_t logical_size);

  // Appending update: extends the latest version in place while its
  // bucket is still open, otherwise regenerates a new version with the
  // combined content.
  sim::Task<Status> Append(std::string path,
                           std::vector<std::uint8_t> data);

  // Reads the latest version. A tagged hint feeds the tray predictor
  // (speculative prefetch of the stream's likely next tray); a scan hint
  // additionally triggers whole-tray readahead of sibling images.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> Read(std::string path,
                                                      std::uint64_t offset,
                                                      std::uint64_t length,
                                                      AccessHint hint = {});

  // Reads a historic version still in the index ring (data provenance).
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadVersion(
      std::string path, int version, std::uint64_t offset,
      std::uint64_t length);

  // Serves the first bytes of a file from MV within ~2 ms (§4.8's
  // forepart-data-stored mechanism). Requires forepart_enabled.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadForepart(
      std::string path);

  // ------------------------------------------------------------------
  // Streaming handles (the FUSE open / write* / release sequence): each
  // AppendStream/ReadStream charges a single internal operation; the MV
  // index is written back by CloseStream (release). This is the data path
  // behind filebench's singlestream workloads (Fig 6).
  // ------------------------------------------------------------------
  sim::Task<Status> AppendStream(std::string path,
                                 std::vector<std::uint8_t> data,
                                 std::uint64_t logical_grow,
                                 AccessHint hint = {});
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadStream(
      std::string path, std::uint64_t offset, std::uint64_t length,
      AccessHint hint = {});
  sim::Task<Status> CloseStream(std::string path);

  sim::Task<StatusOr<FileInfo>> Stat(std::string path);
  sim::Task<Status> Mkdir(std::string path);
  sim::Task<StatusOr<std::vector<std::string>>> ReadDir(
      std::string path);
  // Logical delete: a tombstone version (WORM media keeps the bytes).
  // Stat and ReadDir no longer see the file.
  sim::Task<Status> Unlink(std::string path);

  // ------------------------------------------------------------------
  // Control plane
  // ------------------------------------------------------------------

  // Closes the open bucket and burns everything pending, including a
  // partial final array; waits for the pipeline to drain.
  sim::Task<Status> FlushAndDrain();

  // Burns a snapshot of the MV namespace as a disc image (§4.2).
  sim::Task<Status> BurnMvSnapshot();

  // Background policies:
  //  - "MV is periodically burned into discs" (§4.2): a snapshot image is
  //    admitted to the burn pipeline every `interval` while dirty;
  //  - stale buffered data is flushed (a "pre-defined burning policy",
  //    §4.3) when the open bucket has been idle for `interval`.
  //  - burned arrays are scrubbed for sector errors during idle periods
  //    (§4.7) every `scrub_interval`, repairing from parity.
  // All run until the simulation ends. Intervals of 0 disable them.
  void StartBackgroundPolicies(sim::Duration mv_snapshot_interval,
                               sim::Duration auto_flush_interval,
                               sim::Duration scrub_interval = 0);

  // Quiesces the facade for a mid-simulation teardown (rack kill /
  // controller replacement, DESIGN.md §5k): permanently stops the
  // background policy loops, then waits until no background pass,
  // detached prefetch/readahead task, active burn, or queued fetch is
  // still running. After it completes (and with no foreground operation
  // in flight — the caller's responsibility) destroying this Olfs is
  // safe even while the simulation keeps running.
  sim::Task<void> Quiesce();

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  // Internal-op trace of the most recent PI operation (Fig 7).
  const std::vector<std::string>& last_op_trace() const { return op_trace_; }

  // Whole-tray readahead bytes (ImageReader::readahead_bytes), kept here
  // for the benchmark harness.
  std::uint64_t readahead_bytes() const { return reader_->readahead_bytes(); }

  RosSystem& system() { return *system_; }
  MetadataVolume& mv() { return *mv_; }
  DiscImageStore& images() { return *images_; }
  BucketManager& buckets() { return *buckets_; }
  BurnManager& burns() { return *burns_; }
  FetchManager& fetches() { return *fetcher_; }
  // Never null: every read's bay claim goes through the scheduler.
  FetchScheduler* fetch_scheduler() { return scheduler_.get(); }
  ReadCache& cache() { return *cache_; }
  MechController& mech() { return *mech_; }
  DaIndex& da_index() { return *da_; }
  AffinityTracker& affinity() { return *affinity_; }
  TrayPredictor& predictor() { return *predictor_; }
  AuditRegistry& audit() { return *audit_; }
  ScrubManager& scrub() { return *scrub_; }
  ImageReader& reader() { return *reader_; }
  sim::Simulator& simulator() { return sim_; }
  const OlfsParams& params() const { return params_; }

 private:
  // Charges one internal OLFS operation (plus the mode switch separating
  // it from the previous one) and records it in the trace.
  sim::Task<void> ChargeOp(const char* name, bool first = false);

  // The background policies of StartBackgroundPolicies, each run by a
  // PolicyLoop every `interval` until the facade goes away. A PolicyPass
  // whose trigger does not hold (nothing new to snapshot, not idle) is a
  // no-op.
  enum class Policy { kMvSnapshot, kAutoFlush, kScrub };
  sim::Task<void> PolicyLoop(Policy policy, sim::Duration interval,
                             std::shared_ptr<const bool> alive);
  sim::Task<void> PolicyPass(Policy policy, sim::Duration interval);

  // Ensures every ancestor directory has an MV index entry.
  sim::Task<Status> EnsureAncestors(std::string path);

  // Writes one version of `path` and updates its index file.
  sim::Task<Status> WriteVersion(std::string path,
                                 std::vector<std::uint8_t> data,
                                 std::uint64_t logical_size, bool create,
                                 AccessHint hint = {});

  // Reads `length` bytes at `offset` of a resolved version entry.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadEntry(
      std::string path, VersionEntry entry,
      std::uint64_t offset, std::uint64_t length, AccessHint hint = {});

  // Reads a byte range of one part: buffered tiers through the bucket
  // manager, the burned-only tier through the ImageReader. Not a
  // coroutine: it hands the request to the tier's reader, so a part read
  // allocates no frame of its own.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadPart(
      std::string internal_path, FilePart part,
      std::uint64_t offset, std::uint64_t length, AccessHint hint = {});

  sim::Simulator& sim_;
  RosSystem* system_;
  OlfsParams params_;

  std::unique_ptr<MetadataVolume> mv_;
  std::unique_ptr<DiscImageStore> images_;
  std::unique_ptr<AffinityTracker> affinity_;
  std::unique_ptr<TrayPredictor> predictor_;
  std::unique_ptr<BucketManager> buckets_;
  std::unique_ptr<ParityBuilder> parity_;
  std::unique_ptr<DaIndex> da_;
  std::unique_ptr<ReadCache> cache_;
  std::unique_ptr<MechController> mech_;
  std::unique_ptr<FetchScheduler> scheduler_;
  std::unique_ptr<BurnManager> burns_;
  std::unique_ptr<FetchManager> fetcher_;
  std::unique_ptr<AuditRegistry> audit_;
  std::unique_ptr<ScrubManager> scrub_;
  std::unique_ptr<ImageReader> reader_;

  // Open streaming handles: cached index files, flushed on CloseStream.
  std::map<std::string, IndexFile> stream_handles_;

  // Per-path write serialization: concurrent mutations of one file are
  // read-modify-write cycles on its index and must not interleave.
  sim::Task<sim::Mutex::ScopedLock> LockPath(std::string path);
  std::map<std::string, std::unique_ptr<sim::Mutex>> path_locks_;

  std::vector<std::string> op_trace_;
  int mv_snapshot_counter_ = 0;
  std::uint64_t namespace_writes_ = 0;      // dirtiness since last snapshot
  std::uint64_t last_snapshot_writes_ = 0;
  sim::TimePoint last_write_time_ = 0;
  // Teardown support (Quiesce): liveness flag shared with the background
  // loops and count of loop bodies mid-pass.
  std::shared_ptr<bool> bg_alive_ = std::make_shared<bool>(true);
  int bg_passes_ = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_OLFS_H_
