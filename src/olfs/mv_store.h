// The storage seam under the Metadata Volume (§4.2): MetadataVolume reaches
// the volume only through one MvStore, which hides how entries sit there —
// FileMvStore (mv_file_store.h) or LogMvStore (mv_log_store.h). A store
// deals in raw value bytes (an entry's JSON document) keyed by namespace
// path or running-state key. It never decodes an index; it only tells the
// cache above it when bytes a cached decode came from change.
#ifndef ROS_SRC_OLFS_MV_STORE_H_
#define ROS_SRC_OLFS_MV_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/disk/volume.h"
#include "src/olfs/index_file.h"
#include "src/olfs/mv_log.h"
#include "src/sim/task.h"

namespace ros::olfs {

// Where a stored value's bytes sit on the metadata volume's device. A
// cache hit replays these ranges, so it charges the simulated SSD exactly
// what the miss that filled it did.
struct MvPlacement {
  // Empty: the value is RAM-resident and a read charges nothing.
  disk::Volume::ByteSegments segments;
  // Store-defined group the ranges belong to (LogMvStore: the segment id,
  // 0 = memtable). MvDecodeCache::EraseSource drops a whole group.
  std::uint64_t source = 0;
};

// Bounded LRU of decoded index entries, shared as immutable objects.
// Implemented in metadata_volume.cc, which owns the one instance; stores
// hold a pointer only to drop what their own bookkeeping moves.
class MvDecodeCache {
 public:
  using IndexPtr = std::shared_ptr<const IndexFile>;

  struct Entry {
    std::string path;
    IndexPtr index;  // immutable; hits share it, eviction can't invalidate
    MvPlacement placement;
  };
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    // any lookup not served from cache
    std::uint64_t evictions = 0;  // LRU capacity evictions only
  };

  // `capacity = 0` disables the cache: nothing is stored or counted.
  explicit MvDecodeCache(std::size_t capacity) : capacity_(capacity) {}

  // The map holds views of the list's own path strings.
  MvDecodeCache(const MvDecodeCache&) = delete;
  MvDecodeCache& operator=(const MvDecodeCache&) = delete;

  // The entry for `path`, promoted to most recently used, or null. The
  // pointer is valid until the cache next changes. With a non-zero
  // capacity every lookup counts as exactly one hit or one miss.
  const Entry* Lookup(std::string_view path);
  void Insert(const std::string& path, IndexPtr index, MvPlacement placement);
  void Erase(std::string_view path);
  // Drops every entry whose placement.source is `source`.
  void EraseSource(std::uint64_t source);
  void Clear();

  const Stats& stats() const { return stats_; }
  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  using LruList = std::list<Entry>;

  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  // Keyed on each entry's own path string (list nodes are stable), so
  // lookups and invalidations never build a key.
  // ros_analyze: allow(unordered-member): point lookups by path only;
  // eviction order comes from lru_, never from this map.
  std::unordered_map<std::string_view, LruList::iterator> map_;
  Stats stats_;
};

// What store_stats() reports. Only LogMvStore fills it in.
struct MvStoreStats {
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

class MvStore {
 public:
  // A raw point read of one entry.
  struct Value {
    std::string bytes;
    // Where `bytes` came from, or nullopt when a mutation moved the entry
    // during the read: the bytes answer this read but must not be cached.
    std::optional<MvPlacement> placement;
  };
  // PutIndex calls it once the new value is what reads see, unless another
  // mutation of the volume overtook the write first.
  using Publish = std::function<void(MvPlacement)>;

  MvStore() = default;
  virtual ~MvStore() = default;
  // Background tasks and the cache pointer pin a store to its address.
  MvStore(const MvStore&) = delete;
  MvStore& operator=(const MvStore&) = delete;

  // Replays a prior incarnation's state from the volume; a no-op once
  // open. Every asynchronous call below requires a successful Open, and
  // the synchronous accessors report an empty namespace until then.
  virtual sim::Task<Status> Open() = 0;

  virtual sim::Task<StatusOr<Value>> ReadIndex(std::string path) = 0;
  virtual sim::Task<Status> PutIndex(std::string path, std::string doc,
                                     Publish publish) = 0;
  virtual sim::Task<Status> RemoveIndex(std::string path) = 0;
  // Writes every (path, doc) pair, replacing existing entries, and
  // returns one status per pair, in order: a failed entry does not stop
  // the rest.
  virtual sim::Task<std::vector<Status>> RestoreIndexes(
      std::vector<std::pair<std::string, std::string>> entries) = 0;

  virtual sim::Task<StatusOr<Value>> ReadState(std::string key) = 0;
  virtual sim::Task<Status> PutState(std::string key, std::string doc) = 0;

  virtual std::uint64_t IndexCount() const = 0;
  // The first index path at or after `from` in byte order, or nullopt.
  // Every namespace lookup and ordered walk is built on this; it holds no
  // iterator, so a walk may suspend between steps. `path + '\0'` is the
  // smallest string after `path`.
  virtual std::optional<std::string> NextPath(
      const std::string& from) const = 0;

  // Forgets all state ahead of a volume format. Requires quiescence.
  virtual void Wipe() = 0;
  // Called for every write to the volume, including writes that bypass
  // the store: keeps store-side counters current and drops the cached
  // decodes whose bytes the write touched.
  virtual void OnVolumeMutation(const std::string& name,
                                disk::Volume::MutationKind kind) = 0;
  virtual MvStoreStats Stats() const = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_MV_STORE_H_
