// The Metadata Volume (MV), §4.2.
//
// MV maintains the updatable map between millions of global-namespace
// entries and thousands of discs. It lives on a small, fast ext4-style
// volume (a pair of SSDs in RAID-1 with 1 KiB blocks and 128-byte inodes)
// and stores the namespace index plus system running state. Metadata and
// data storage are physically decoupled: nothing here holds file payloads
// (except the optional forepart).
//
// How entries sit on the volume is an MvStore's business (mv_store.h):
// `Options::log_structured` picks the paper's one-file-per-entry
// FileMvStore or the log-structured LogMvStore (DESIGN.md §5i). This class
// holds what both share, once:
//
//  * IndexFile encode/decode. Stores see only raw JSON bytes.
//  * The decoded-index cache (DESIGN.md §5d): a bounded write-through LRU
//    of decoded IndexFile objects shared as immutable `IndexPtr`s. A hit
//    replays the device ranges the store reported for the entry, so it
//    charges the same simulated SSD read as a miss (RAM-resident entries
//    charge nothing either way): the cache removes host-side JSON decode
//    work and never moves simulated time.
//  * The volume mutation observer. Every volume-level write — including
//    ones that bypass this class, e.g. recovery tools or corruption tests
//    poking volume() directly — synchronously reaches the store, which
//    drops the cached decodes the write touched, so a hit needs no stat
//    and can never serve masked bytes. A store publishes a decode only
//    when its write or read was not overtaken by another mutation.
//  * The snapshot image layout ("/.mv/<path>#idx") and restore's suffix
//    stripping and failure accounting, so a snapshot taken over one store
//    restores into the other byte-for-byte.
#ifndef ROS_SRC_OLFS_METADATA_VOLUME_H_
#define ROS_SRC_OLFS_METADATA_VOLUME_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/disk/volume.h"
#include "src/olfs/index_file.h"
#include "src/olfs/mv_store.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/udf/image.h"

namespace ros::olfs {

class MetadataVolume {
 public:
  // Default bound: ~64k decoded entries. At the paper's ~388 bytes per
  // index file this is a few tens of MB of RAM fronting a billion-entry
  // namespace's hot set. `cache_capacity = 0` disables the cache entirely
  // (differential tests and the mv_hotpath baseline use this).
  static constexpr std::size_t kDefaultCacheCapacity = 64 * 1024;

  struct Options {
    bool log_structured = false;
    std::size_t cache_capacity = kDefaultCacheCapacity;
    // LogMvStore tuning (see its constructor); ignored by FileMvStore.
    std::uint64_t memtable_flush_bytes = 8 * kMiB;
    std::size_t compact_min_segments = 8;
    std::size_t compact_fan_in = 4;
  };

  // The simulator powers LogMvStore's WAL flusher and compactor.
  MetadataVolume(sim::Simulator& sim, disk::Volume* volume, Options options);
  ~MetadataVolume();

  // The registered observer captures `this`.
  MetadataVolume(const MetadataVolume&) = delete;
  MetadataVolume& operator=(const MetadataVolume&) = delete;

  // Replays a log-structured store's segments + WAL from the volume.
  // Implicit on the first async operation against a dirty volume; callers
  // that want recovery timing (or its error) call it directly. Synchronous
  // accessors (Exists, index_count, ListChildren, ...) on a not-yet-opened
  // store report an empty namespace. No-op when already open, and always a
  // no-op for the file store.
  sim::Task<Status> Open() { return store_->Open(); }

  // --- index files ---

  bool Exists(const std::string& path) const;

  sim::Task<Status> Put(IndexFile index);

  // Hot read path: the decoded index as an immutable shared object. A
  // cache hit hands back the cached object itself (a refcount bump, no
  // deep copy); a miss decodes, publishes to the cache, and returns the
  // shared decode. Readers that never modify the index (stat, read,
  // forepart) should use this.
  using IndexPtr = MvDecodeCache::IndexPtr;
  sim::Task<StatusOr<IndexPtr>> GetRef(std::string path) const;

  // Mutable copy for callers about to modify and Put back.
  sim::Task<StatusOr<IndexFile>> Get(std::string path) const;

  sim::Task<Status> Remove(std::string path);

  // Direct children (leaf names) of a directory in the global namespace.
  // Range-bounded: skips whole subtrees instead of filtering every
  // descendant.
  std::vector<std::string> ListChildren(const std::string& path) const;

  // True when the directory has at least one entry below it (O(log n);
  // cheaper than ListChildren when only emptiness matters).
  bool HasChildren(const std::string& path) const;

  // All namespace paths (for snapshots and consistency checks).
  std::vector<std::string> AllPaths() const;

  // --- system running state (also JSON, §4.2) ---

  sim::Task<Status> PutState(std::string key, json::Value v);
  sim::Task<StatusOr<json::Value>> GetState(std::string key) const;

  // --- durability (§4.2: MV is periodically burned into discs) ---

  // Packs every index file into a self-describing UDF image (under
  // /.mv/...) that the burn pipeline writes to discs like any other image.
  // Entries stream one at a time in path order; one removed meanwhile is
  // skipped.
  sim::Task<StatusOr<udf::Image>> BuildSnapshotImage(
      std::string image_id, std::uint64_t capacity) const;

  // Restores the namespace from a snapshot image (inverse of the above).
  // Existing index files are replaced. Keeps going past per-entry failures
  // and reports the first error (annotated with how many more failed)
  // rather than aborting the whole restore.
  sim::Task<Status> RestoreFromSnapshot(const udf::Image& snapshot);

  // Wipes the namespace (simulating MV loss before a recovery). Requires
  // quiescence: no MV operation may be in flight.
  void WipeAll();

  std::uint64_t index_count() const { return store_->IndexCount(); }
  disk::Volume* volume() { return volume_; }

  // --- decoded-index cache introspection ---

  using CacheStats = MvDecodeCache::Stats;
  const CacheStats& cache_stats() const { return cache_.stats(); }
  std::size_t cache_size() const { return cache_.size(); }
  std::size_t cache_capacity() const { return cache_.capacity(); }

  // --- log-structured store introspection ---

  using StoreStats = MvStoreStats;
  StoreStats store_stats() const { return store_->Stats(); }

  static constexpr std::string_view kSnapshotDir = "/.mv";

 private:
  void OnVolumeMutation(const std::string& name,
                        disk::Volume::MutationKind kind);

  disk::Volume* volume_;
  // A performance detail of logically-const reads.
  mutable MvDecodeCache cache_;
  // Declared after the cache it points at, so it is destroyed first.
  std::unique_ptr<MvStore> store_;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_METADATA_VOLUME_H_
