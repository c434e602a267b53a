// The Metadata Volume (MV), §4.2.
//
// MV maintains the updatable map between millions of global-namespace
// entries and thousands of discs. It lives on a small, fast ext4-style
// volume (a pair of SSDs in RAID-1 with 1 KiB blocks and 128-byte inodes)
// and stores the namespace index plus system running state. Metadata and
// data storage are physically decoupled: nothing here holds file payloads
// (except the optional forepart).
//
// Two interchangeable backends live behind this one API:
//
//  * Legacy (the original design): one JSON file per namespace entry
//    ("/idx" + path) plus "/state/" files. Simple, but every Put pays
//    per-file inode churn and a whole-file rewrite.
//
//  * Log-structured (DESIGN.md §5i, `Options::log_structured`): mutations
//    append framed records to a WAL with group commit — concurrent
//    writers coalesce into one batched volume append per flush window,
//    each caller awaiting the batch's durability barrier. Reads come from
//    a sharded in-memory memtable over immutable sorted segment files; a
//    background compactor (simulated time, fully deterministic) merges
//    segments and drops dead records. Crash recovery replays segments in
//    file-name order and then the WAL tail; per-record CRCs detect a torn
//    tail, which is truncated away — acked mutations always survive,
//    unacked ones vanish cleanly.
//
// Hot reads are served from a bounded write-through LRU cache of *decoded*
// IndexFile objects shared as immutable `IndexPtr`s (DESIGN.md §5d). A
// cache hit still charges the same simulated SSD read as the uncached
// path (the bytes still come off the MV pair; what the cache removes is
// host-side JSON decode work), so simulated timings are identical with
// the cache on or off. In the log-structured backend memtable-resident
// entries charge nothing either way (they are RAM on both paths), and
// segment-backed entries replay the exact device ranges of the record.
//
// Coherence is push-based: the MV registers disk::Volume's mutation
// observer, and every volume-level write — including ones that bypass
// this class, e.g. recovery tools or corruption tests poking volume()
// directly — synchronously drops the touched entry, so a hit needs no
// stat and can never serve masked bytes. Inserts are additionally pinned
// to disk::Volume's never-reused per-file write generations (legacy) or
// to the store's own mutation generation (log-structured), which keeps
// concurrent writers from publishing stale decodes across a suspension.
#ifndef ROS_SRC_OLFS_METADATA_VOLUME_H_
#define ROS_SRC_OLFS_METADATA_VOLUME_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/disk/volume.h"
#include "src/olfs/index_file.h"
#include "src/olfs/mv_log.h"
#include "src/olfs/mv_segment.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
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
    // Group-commit window handed to MvLog.
    sim::Duration commit_window = sim::Micros(100);
    // Freeze + flush the active memtable once its serialized size reaches
    // this. Bounds resident bytes: at most ~2 windows of mutations (active
    // + one immutable generation) stay decoded in RAM.
    std::uint64_t memtable_flush_bytes = 8 * kMiB;
    // Compaction outputs are split at this size.
    std::uint64_t max_segment_bytes = 64 * kMiB;
    // Compact when the store holds more than this many segments...
    std::size_t compact_min_segments = 8;
    // ...merging this many oldest segments per round...
    std::size_t compact_fan_in = 4;
    // ...or when more than this fraction of segment records are dead.
    double compact_garbage_ratio = 0.5;
  };

  // Legacy one-file-per-entry backend. No simulator needed: it runs no
  // background work of its own.
  explicit MetadataVolume(disk::Volume* volume,
                          std::size_t cache_capacity = kDefaultCacheCapacity)
      : volume_(volume), cache_capacity_(cache_capacity) {
    legacy_index_count_ = volume_->CountPrefix("/idx/");
    volume_->SetMutationObserver(
        [this](const std::string& name, disk::Volume::MutationKind kind) {
          OnVolumeMutation(name, kind);
        });
  }

  // Options-selected backend. The simulator powers the WAL flusher and the
  // compactor when `options.log_structured` is set.
  MetadataVolume(sim::Simulator& sim, disk::Volume* volume, Options options);

  ~MetadataVolume();

  // The registered observer captures `this`.
  MetadataVolume(const MetadataVolume&) = delete;
  MetadataVolume& operator=(const MetadataVolume&) = delete;

  bool log_structured() const { return log_ != nullptr; }

  // Log-structured recovery entry point: replays segments + WAL from the
  // volume. Implicit on the first async operation against a dirty volume;
  // callers that want recovery timing (or its error) call it directly.
  // Synchronous accessors (Exists, index_count, ListChildren, ...) on a
  // not-yet-opened store report an empty namespace. No-op when already
  // open, and always a no-op for the legacy backend.
  sim::Task<Status> Open();

  // --- index files ---

  bool Exists(const std::string& path) const;

  sim::Task<Status> Put(IndexFile index);

  // Hot read path: the decoded index as an immutable shared object. A
  // cache hit hands back the cached object itself (a refcount bump, no
  // deep copy); a miss decodes, publishes to the cache, and returns the
  // shared decode. Readers that never modify the index (stat, read,
  // forepart) should use this.
  using IndexPtr = std::shared_ptr<const IndexFile>;
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
  // The image layout is backend-independent, so a snapshot taken by one
  // backend restores into the other byte-for-byte.
  sim::Task<StatusOr<udf::Image>> BuildSnapshotImage(
      std::string image_id, std::uint64_t capacity) const;

  // Restores the namespace from a snapshot image (inverse of the above).
  // Existing index files are replaced. Keeps going past per-file failures
  // and reports the first error (annotated with how many more failed)
  // rather than aborting the whole restore.
  sim::Task<Status> RestoreFromSnapshot(const udf::Image& snapshot);

  // Wipes the namespace (simulating MV loss before a recovery). Requires
  // quiescence: no MV operation may be in flight.
  void WipeAll();

  std::uint64_t index_count() const;
  disk::Volume* volume() { return volume_; }

  // --- decoded-index cache introspection ---

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    // any Get not served from cache
    std::uint64_t evictions = 0;  // LRU capacity evictions only
  };
  const CacheStats& cache_stats() const { return cache_stats_; }
  std::size_t cache_size() const { return cache_map_.size(); }
  std::size_t cache_capacity() const { return cache_capacity_; }

  // --- log-structured store introspection ---

  struct StoreStats {
    bool log_structured = false;
    MvLog::Stats wal;
    std::uint64_t memtable_entries = 0;
    std::uint64_t memtable_bytes = 0;  // serialized size, active + immutable
    std::uint64_t segment_count = 0;
    std::uint64_t segment_records_total = 0;
    std::uint64_t segment_records_live = 0;
    std::uint64_t segment_bytes = 0;
    std::uint64_t memtable_flushes = 0;
    std::uint64_t compactions = 0;
    std::uint64_t segments_deleted = 0;  // compacted away
    // Recovery telemetry (cumulative across opens of this object).
    std::uint64_t recovered_segments = 0;
    std::uint64_t corrupt_segments = 0;  // damaged ones skipped/truncated
    std::uint64_t replayed_wal_records = 0;
    std::uint64_t torn_tail_bytes = 0;   // discarded by replay
  };
  StoreStats store_stats() const;

  // MV file-name mapping (exposed for tests).
  static std::string IndexName(const std::string& path) {
    return "/idx" + path;
  }
  static constexpr std::string_view kSnapshotDir = "/.mv";

  // Log-structured key-space mapping (exposed for tests). Namespace paths
  // all start with '/', so index keys share the "i/" prefix and state keys
  // the disjoint "s/" prefix, keeping both in one ordered keydir.
  static std::string IndexKey(const std::string& path) { return "i" + path; }
  static std::string StateKey(const std::string& key) { return "s/" + key; }

 private:
  struct CacheEntry {
    std::string path;
    IndexPtr index;  // immutable; hits share it, eviction can't invalidate
    // Device ranges backing the entry, valid until the entry is dropped
    // (push invalidation drops it on any mutation): hits replay the
    // read charge from here instead of paying a second file-table lookup.
    // Empty for memtable-resident entries (a miss would charge nothing).
    disk::Volume::ByteSegments segments;
    // Log-structured: segment the ranges live in (0 = memtable). Dropped
    // wholesale when that segment is flushed over or compacted away.
    std::uint64_t source_seg = 0;
  };
  using LruList = std::list<CacheEntry>;

  // --- log-structured backend state (DESIGN.md §5i) ---

  struct MemEntry {
    std::string value;
    bool tombstone = false;
  };
  using Shard = std::map<std::string, MemEntry>;
  static constexpr std::size_t kMemtableShards = 8;

  struct SegmentInfo {
    std::uint64_t rank = 0;
    std::uint64_t id = 0;
    std::string file;
    std::uint64_t records_total = 0;
    std::uint64_t records_live = 0;  // still referenced by the keydir
    std::uint64_t bytes = 0;
    std::uint64_t pins = 0;  // point reads in flight against the file
    bool retired = false;    // unlinked from the keydir, awaiting delete
  };
  using SegmentPtr = std::shared_ptr<SegmentInfo>;

  // Where the newest version of a live key lives.
  struct KeyRef {
    std::uint64_t seg_id = 0;  // 0 = memtable tier
    std::uint64_t offset = 0;  // record frame within the segment file
    std::uint32_t length = 0;
  };

  // Counters behind store_stats() (the live gauges are derived on demand).
  struct StoreCounters {
    std::uint64_t memtable_flushes = 0;
    std::uint64_t compactions = 0;
    std::uint64_t segments_deleted = 0;
    std::uint64_t recovered_segments = 0;
    std::uint64_t corrupt_segments = 0;
    std::uint64_t replayed_wal_records = 0;
    std::uint64_t torn_tail_bytes = 0;
  };

  // The volume's mutation observer: drops whatever the write touched
  // from the decode cache, and keeps the legacy backend's index counter
  // current (existence changes only — kCreated/kDeleted/kFormatted).
  void OnVolumeMutation(const std::string& name,
                        disk::Volume::MutationKind kind) const;

  // Decodes nothing itself: callers hand over the decoded index plus the
  // device mapping of the bytes it was decoded from.
  void CacheInsert(const std::string& path, IndexPtr index,
                   disk::Volume::ByteSegments segments,
                   std::uint64_t source_seg = 0) const;
  void CacheErase(std::string_view path) const;
  void CacheClear() const;
  // Drops every entry whose device ranges live in `seg_id` (their replay
  // charge is about to stop matching a fresh miss).
  void CacheEraseBySegment(std::uint64_t seg_id) const;

  bool ls() const { return log_ != nullptr; }

  std::size_t ShardOf(std::string_view key) const;
  // Memtable lookup, newest tier first: active shard, then immutable.
  const MemEntry* FindMem(const std::string& key) const;

  // Applies one mutation to memtable + keydir + live counters and drops
  // the key's cached decode. Host-atomic (no suspension). Does NOT touch
  // the WAL: callers append (or are replaying what was already appended).
  void MemtableApply(const std::string& key, std::string value,
                     bool tombstone) const;
  // Detaches a key's previous location (segment live-count bookkeeping).
  void DecLiveRef(const KeyRef& ref) const;

  // Serialized size of one memtable entry, for the flush threshold.
  static std::uint64_t EntryBytes(const std::string& key,
                                  const MemEntry& entry) {
    return mvlog::kRecordHeaderBytes + key.size() + entry.value.size();
  }

  // Recovery: single-flight replay of segments + WAL into a clean store.
  sim::Task<Status> EnsureOpen() const;
  sim::Task<Status> RecoverLs() const;
  void ResetLsState() const;

  // Full point read of a key's raw value bytes (memtable, then segment).
  // Does not consult or fill the decoded-index cache.
  sim::Task<StatusOr<std::string>> ReadValueLs(std::string key) const;

  sim::Task<StatusOr<IndexPtr>> GetRefLs(std::string path) const;

  // Background memtable flush + segment compaction. Detached coroutines:
  // they re-check `alive` after every suspension (the MV can be destroyed
  // under them on re-attach) and `epoch_` (WipeAll invalidates the world).
  void MaybeScheduleFlush() const;
  sim::Task<void> FlushTaskLs(std::shared_ptr<const bool> alive) const;
  sim::Task<Status> FlushOnceLs(std::shared_ptr<const bool> alive) const;
  void MaybeScheduleCompaction() const;
  sim::Task<void> CompactTaskLs(std::shared_ptr<const bool> alive) const;
  sim::Task<Status> CompactOnceLs(std::shared_ptr<const bool> alive) const;
  bool CompactionNeeded() const;
  // Full-size and fully live: re-merging it cannot shrink anything.
  bool SealedSegment(const SegmentInfo& seg) const;

  disk::Volume* volume_;
  std::size_t cache_capacity_;
  // Legacy backend's O(1) index_count: seeded from one CountPrefix walk
  // at construction, then maintained by the mutation observer (mutable:
  // the observer fires from logically-const cache maintenance paths).
  mutable std::uint64_t legacy_index_count_ = 0;
  // The cache is a performance detail of logically-const Gets. The map is
  // keyed on each entry's own path string (list nodes are stable), so
  // lookups and invalidations never build a key.
  mutable LruList lru_;  // front = most recently used
  // ros_analyze: allow(unordered-member): point lookups by path only;
  // eviction order comes from lru_, never from this map.
  mutable std::unordered_map<std::string_view, LruList::iterator> cache_map_;
  mutable CacheStats cache_stats_;

  // --- log-structured members (all null/empty for the legacy backend).
  // Mutable: logically-const reads pin segments, open the store, and
  // publish cache state; the public API's constness is the contract.
  sim::Simulator* sim_ = nullptr;
  Options options_;
  std::unique_ptr<MvLog> log_;  // non-null iff log-structured
  // Set false in the destructor; detached background tasks that wake later
  // see it and return without touching the dead store.
  std::shared_ptr<bool> alive_;
  mutable std::array<Shard, kMemtableShards> active_;
  mutable std::array<Shard, kMemtableShards> imm_;
  mutable bool imm_valid_ = false;
  mutable std::uint64_t memtable_bytes_ = 0;  // active_ serialized size
  mutable std::uint64_t imm_bytes_ = 0;
  // Every live key, ordered — the authority for Exists/listing/counts.
  // Tombstoned keys are absent (the tombstone itself lives in the shards
  // until flushed).
  mutable std::map<std::string, KeyRef> keydir_;
  mutable std::vector<SegmentPtr> segments_;  // (rank, id) order, oldest first
  mutable std::map<std::uint64_t, SegmentPtr> segs_by_id_;
  mutable std::uint64_t live_index_count_ = 0;  // keys in the "i" domain
  mutable std::uint64_t next_rank_ = 1;
  mutable std::uint64_t next_seg_id_ = 1;
  mutable std::uint64_t epoch_ = 0;      // bumps on WipeAll
  mutable bool opened_ = true;   // false: dirty volume awaiting recovery
  mutable bool opening_ = false;
  std::unique_ptr<sim::Event> open_done_;        // pulsed after each attempt
  std::unique_ptr<sim::ConditionVariable> pin_cv_;  // pin released
  mutable bool flush_running_ = false;
  mutable bool compact_running_ = false;
  mutable StoreCounters counters_;
  mutable Status last_background_error_;  // first flush/compact failure
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_METADATA_VOLUME_H_
