// The log-structured Metadata Volume store (DESIGN.md §5i).
//
// Mutations append framed records to a WAL with group commit: concurrent
// writers coalesce into one batched volume append per flush window, each
// caller awaiting the batch's durability barrier. Reads come from an
// in-memory memtable over immutable sorted segment files; a background
// compactor (simulated time, fully deterministic) merges segments and
// drops dead records. Crash recovery replays segments in file
// name order and then the WAL tail; per-record CRCs detect a torn tail,
// which is truncated away — acked mutations always survive, unacked ones
// vanish cleanly.
#ifndef ROS_SRC_OLFS_MV_LOG_STORE_H_
#define ROS_SRC_OLFS_MV_LOG_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/olfs/mv_log.h"
#include "src/olfs/mv_segment.h"
#include "src/olfs/mv_store.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace ros::olfs {

class LogMvStore final : public MvStore {
 public:
  // A volume carrying a prior incarnation's log starts closed; Open replays
  // it. The active memtable is frozen and flushed once its serialized size
  // reaches `memtable_flush_bytes`, so at most ~2 windows of mutations stay
  // decoded in RAM. Compaction merges `compact_fan_in` segments per round
  // while more than `compact_min_segments` unsealed ones exist.
  LogMvStore(sim::Simulator& sim, disk::Volume* volume, MvDecodeCache* cache,
             std::uint64_t memtable_flush_bytes,
             std::size_t compact_min_segments, std::size_t compact_fan_in);
  ~LogMvStore() override;

  sim::Task<Status> Open() override;
  sim::Task<StatusOr<Value>> ReadIndex(std::string path) override;
  sim::Task<Status> PutIndex(std::string path, std::string doc,
                             Publish publish) override;
  sim::Task<Status> RemoveIndex(std::string path) override;
  sim::Task<std::vector<Status>> RestoreIndexes(
      std::vector<std::pair<std::string, std::string>> entries) override;
  sim::Task<StatusOr<Value>> ReadState(std::string key) override;
  sim::Task<Status> PutState(std::string key, std::string doc) override;

  std::uint64_t IndexCount() const override;
  std::optional<std::string> NextPath(
      const std::string& from) const override;

  void Wipe() override;
  void OnVolumeMutation(const std::string& name,
                        disk::Volume::MutationKind kind) override;
  MvStoreStats Stats() const override;

 private:
  // Compaction outputs are split at this size.
  static constexpr std::uint64_t kMaxSegmentBytes = 64 * kMiB;
  // Compact when more than this fraction of segment records are dead.
  static constexpr double kCompactGarbageRatio = 0.5;
  // Restore appends per group-commit window.
  static constexpr std::size_t kRestoreWindow = 128;

  struct MemEntry {
    std::string value;
    bool tombstone = false;
  };
  using Memtable = std::map<std::string, MemEntry>;

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

  // Memtable lookup, newest tier first: active, then immutable.
  const MemEntry* FindMem(const std::string& key) const;

  // Applies one mutation to memtable + keydir + live counters and drops
  // the key's cached decode. Host-atomic (no suspension). Does NOT touch
  // the WAL: callers append (or are replaying what was already appended).
  void MemtableApply(const std::string& key, std::string value,
                     bool tombstone);
  // Points a live key at `ref`, or drops it, keeping the segment live
  // counts and the index count in step.
  void KeydirPut(const std::string& key, KeyRef ref);
  void KeydirErase(const std::string& key);
  // Detaches a key's previous location (segment live-count bookkeeping).
  void DecLiveRef(const KeyRef& ref);
  // A new segment's bookkeeping, registered by id; the caller places it in
  // segments_.
  SegmentPtr AddSegment(std::uint64_t rank, std::uint64_t id, std::string file,
                        std::uint64_t records_total, std::uint64_t bytes);

  // Serialized size of one memtable entry, for the flush threshold.
  static std::uint64_t EntryBytes(const std::string& key,
                                  const MemEntry& entry) {
    return mvlog::kRecordHeaderBytes + key.size() + entry.value.size();
  }

  // Replays segments + WAL into a clean store.
  sim::Task<Status> Recover();
  void ResetState();

  // Point read of a key's raw value bytes (memtable, then segment), with
  // the placement a cache may publish them under.
  sim::Task<StatusOr<Value>> ReadValue(std::string key);

  // Background memtable flush + segment compaction. Detached coroutines:
  // they re-check `alive` after every suspension (the store can be
  // destroyed under them on re-attach) and `epoch_` (Wipe invalidates the
  // world).
  void MaybeScheduleFlush();
  sim::Task<void> FlushTask(std::shared_ptr<const bool> alive);
  sim::Task<Status> FlushOnce(std::shared_ptr<const bool> alive);
  void MaybeScheduleCompaction();
  sim::Task<void> CompactTask(std::shared_ptr<const bool> alive);
  sim::Task<Status> CompactOnce(std::shared_ptr<const bool> alive);
  bool CompactionNeeded() const;
  // Full-size and fully live: re-merging it cannot shrink anything.
  static bool SealedSegment(const SegmentInfo& seg);
  // Keeps the first background failure; OK statuses are ignored.
  void NoteBackgroundError(const Status& status);

  sim::Simulator& sim_;
  disk::Volume* volume_;
  MvDecodeCache* cache_;
  const std::uint64_t memtable_flush_bytes_;
  const std::size_t compact_min_segments_;
  const std::size_t compact_fan_in_;
  MvLog log_;
  // Set false in the destructor; detached background tasks that wake later
  // see it and return without touching the dead store.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Memtable active_;
  Memtable imm_;
  bool imm_valid_ = false;
  std::uint64_t memtable_bytes_ = 0;  // active_ serialized size
  std::uint64_t imm_bytes_ = 0;
  // Every live key, ordered — the authority for Exists/listing/counts.
  // Tombstoned keys are absent (the tombstone itself lives in the memtable
  // until flushed).
  std::map<std::string, KeyRef> keydir_;
  std::vector<SegmentPtr> segments_;  // (rank, id) order, oldest first
  std::map<std::uint64_t, SegmentPtr> segs_by_id_;
  std::uint64_t live_index_count_ = 0;  // keys in the "i" domain
  std::uint64_t next_rank_ = 1;
  std::uint64_t next_seg_id_ = 1;
  std::uint64_t epoch_ = 0;  // bumps on Wipe
  bool opened_ = true;       // false: dirty volume awaiting recovery
  bool opening_ = false;
  sim::Event open_done_;         // pulsed after each recovery attempt
  sim::ConditionVariable pin_cv_;  // a segment pin was released
  bool flush_running_ = false;
  bool compact_running_ = false;
  // The cumulative counters; Stats() adds the live gauges.
  MvStoreStats counters_;
  Status last_background_error_;  // first flush/compact failure
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_MV_LOG_STORE_H_
